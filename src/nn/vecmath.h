// Vectorised element-wise activations and softmax reductions for the
// inference hot paths.
//
// The decode loop's non-GEMM cost is almost entirely transcendental:
// sigmoid/tanh over every LSTM gate element and exp over every vocabulary
// logit. Under NCL_ENABLE_NATIVE these run 8-wide (AVX2+FMA) on a degree-6
// polynomial expf (Cephes coefficients, ~2 ulp); the loop tail evaluates
// the *same* operation sequence with scalar FMAs, so every function here is
// position-independent: f(v[j]) does not depend on where j falls relative
// to the vector width. That property is what keeps the batched ED scorer
// bit-identical across tile widths — a one-lane tile and a full tile call
// these helpers over differently shaped buffers (d vs lanes x d), and
// identical inputs must produce identical outputs regardless of offset.
//
// Without native codegen the fallbacks are the exact std::exp/std::tanh
// formulas the call sites previously inlined, so the portable build's
// numerics do not move.
//
// The tape (training) path keeps its own std::exp activations: these
// helpers are value-only and have no gradient story.

#pragma once

#include <cstddef>

namespace ncl::nn {

/// v[j] = 1 / (1 + exp(-v[j])).
void SigmoidInplace(float* v, size_t n);

/// v[j] = tanh(v[j]).
void TanhInplace(float* v, size_t n);

/// h[j] = o[j] * tanh(c[j]). `h` may alias `o` or `c`.
void MulTanhInto(const float* o, const float* c, float* h, size_t n);

/// v[j] = exp(v[j] - shift) (softmax numerator pass).
void ExpShiftedInplace(float* v, size_t n, float shift);

/// Sum of exp(v[j] - shift) (softmax denominator), accumulated in double —
/// the cross-entropy loop's precision. Sequential accumulation in the
/// portable build; the AVX2 build folds each 8-wide exp chunk with a fixed
/// reduction order before widening. Both scoring paths share this routine,
/// so the reduction order is common to them by construction.
double SumExpShifted(const float* v, size_t n, float shift);

}  // namespace ncl::nn
