// Tests for the vectorised activations: accuracy against the libm
// reference and position-independence — the property the batched scorer's
// bit-exactness rests on (vecmath.h). The accuracy bounds hold for both the
// AVX2 polynomial build and the std fallbacks, so the same assertions pin
// both configurations.

#include "nn/vecmath.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "util/random.h"

namespace ncl::nn {
namespace {

std::vector<float> TestValues() {
  // Dense around 0 (LSTM pre-activations live there), plus saturation and
  // clamp territory in both directions.
  std::vector<float> v;
  for (float x = -12.0f; x <= 12.0f; x += 0.037f) v.push_back(x);
  for (float x : {-100.0f, -88.0f, -30.0f, 0.0f, 1e-6f, -1e-6f, 30.0f, 88.0f})
    v.push_back(x);
  Rng rng(11);
  for (int i = 0; i < 500; ++i)
    v.push_back(static_cast<float>(rng.Normal(0.0, 3.0)));
  return v;
}

TEST(VecMathTest, SigmoidMatchesLibm) {
  std::vector<float> v = TestValues();
  std::vector<float> expected;
  for (float x : v) expected.push_back(1.0f / (1.0f + std::exp(-x)));
  SigmoidInplace(v.data(), v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i], expected[i], 2e-6f) << "x[" << i << "]";
  }
}

TEST(VecMathTest, TanhMatchesLibmAndSaturates) {
  std::vector<float> v = TestValues();
  std::vector<float> expected;
  for (float x : v) expected.push_back(std::tanh(x));
  std::vector<float> input = v;
  TanhInplace(v.data(), v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i], expected[i], 2e-6f) << "x[" << i << "]";
    if (input[i] >= 12.0f) {
      EXPECT_EQ(v[i], 1.0f);
    }
    if (input[i] <= -12.0f) {
      EXPECT_EQ(v[i], -1.0f);
    }
  }
}

TEST(VecMathTest, ExpShiftedMatchesLibm) {
  std::vector<float> v = TestValues();
  const float shift = 2.0f;
  std::vector<float> expected;
  for (float x : v) expected.push_back(std::exp(x - shift));
  ExpShiftedInplace(v.data(), v.size(), shift);
  for (size_t i = 0; i < v.size(); ++i) {
    // Relative: exp spans many orders of magnitude.
    EXPECT_NEAR(v[i], expected[i], 4e-7f * expected[i] + 1e-30f)
        << "x[" << i << "]";
  }
}

TEST(VecMathTest, SumExpShiftedMatchesElementwiseExp) {
  std::vector<float> v = TestValues();
  std::vector<float> exps = v;
  const float shift = 1.5f;
  ExpShiftedInplace(exps.data(), exps.size(), shift);
  double expected = 0.0;
  for (float e : exps) expected += static_cast<double>(e);
  const double total = SumExpShifted(v.data(), v.size(), shift);
  EXPECT_NEAR(total, expected, 1e-5 * expected);
}

TEST(VecMathTest, PositionIndependence) {
  // f(x) must not depend on where x sits relative to the vector width: the
  // batched scorer applies these over lanes x d buffers while the single
  // path uses length-d buffers, and the two must agree bit for bit. Run
  // every value at every offset 0..8 and demand identical bits.
  std::vector<float> probe = {-3.7f, -0.002f, 0.0f, 0.41f, 2.9f, 17.0f};
  for (float x : probe) {
    float at_zero[1] = {x};
    TanhInplace(at_zero, 1);
    float sig_zero[1] = {x};
    SigmoidInplace(sig_zero, 1);
    for (size_t offset = 0; offset < 9; ++offset) {
      std::vector<float> buf(offset + 9, 0.125f);
      buf[offset] = x;
      std::vector<float> sig = buf;
      TanhInplace(buf.data(), buf.size());
      SigmoidInplace(sig.data(), sig.size());
      EXPECT_EQ(buf[offset], at_zero[0]) << "tanh offset " << offset;
      EXPECT_EQ(sig[offset], sig_zero[0]) << "sigmoid offset " << offset;
    }
  }
}

TEST(VecMathTest, MulTanhIntoMatchesSeparateOps) {
  std::vector<float> o = TestValues();
  std::vector<float> c = TestValues();
  std::vector<float> t = c;
  TanhInplace(t.data(), t.size());
  std::vector<float> h(o.size());
  MulTanhInto(o.data(), c.data(), h.data(), o.size());
  for (size_t i = 0; i < h.size(); ++i) {
    EXPECT_EQ(h[i], o[i] * t[i]) << "i=" << i;
  }
}

}  // namespace
}  // namespace ncl::nn
