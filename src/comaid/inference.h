// Inference support: the concept-encoding cache and per-thread scratch for
// tape-free Phase II scoring (§5).
//
// ScoreLogProb builds a fresh autodiff tape and re-runs the LSTM encoder
// over the candidate's canonical description for every (query, candidate)
// pair, although concept encodings are query-independent and inference
// never calls Backward. The tape-free scorer
// (ComAidModel::ScoreLogProbFastBatch) splits that work:
//
//   * ConceptEncoding holds everything about a concept that does not depend
//     on the query: the encoder's per-step hidden states (consumed by the
//     text attention, Eqs. 5-6) and the structural-context representations
//     (consumed by the structure attention, Eq. 7).
//   * ConceptEncodingCache memoises ConceptEncodings per concept, filled
//     lazily on first use or eagerly for the whole ontology
//     (ComAidModel::PrecomputeConceptEncodings). Readers are lock-free.
//   * BatchInferenceContext is reusable scratch for the lock-step decoder
//     loop, so a scoring call performs no heap allocation for its
//     activations after warm-up.
//
// Invalidation contract: cached encodings are functions of the encoder
// weights. ComAidModel::NotifyWeightsChanged() (called by the trainer after
// every optimizer step, by InitializeEmbeddings, and by model loading) bumps
// the model's weights version and clears the cache. Weight mutation must
// not run concurrently with scoring — same contract as training itself.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/matrix.h"
#include "obs/metrics.h"
#include "ontology/ontology.h"
#include "text/vocabulary.h"

namespace ncl::comaid {

namespace internal {

/// Cache observability, published under `ncl.concept_cache.*`. Handles are
/// resolved once (defined in inference.cc); every ConceptEncodingCache in
/// the process shares them.
struct ConceptCacheMetrics {
  obs::Counter* hits;           ///< Get returned a cached encoding
  obs::Counter* misses;         ///< Get found the slot empty
  obs::Counter* fills;          ///< Put installed a new encoding
  obs::Counter* fill_races;     ///< Put lost the install race (work wasted)
  obs::Counter* invalidations;  ///< Clear calls (weight mutations)
  obs::Counter* evictions;      ///< encodings dropped across all Clears
};
const ConceptCacheMetrics& GetConceptCacheMetrics();
}  // namespace internal

/// \brief Query-independent encoder outputs for one concept.
struct ConceptEncoding {
  /// Per-step encoder hidden states over the canonical description, one row
  /// per description word (n x d). Row-major, so the text attention's score
  /// pass e_r = h_r . s is a single matvec.
  nn::Matrix encoder_states;
  /// Structural-context representations, one row per Def. 4.1 ancestor slot
  /// (beta x d). Padded/duplicated slots keep their duplicate rows so the
  /// attention softmax matches the tape path exactly. Empty when structural
  /// attention is off.
  nn::Matrix ancestors;

  /// The concept representation h_n^c (final encoder state).
  const float* final_state() const {
    return encoder_states.row_data(encoder_states.rows() - 1);
  }
};

/// \brief Lock-free-read memo of ConceptEncodings, indexed by concept id.
///
/// Get/Put are safe to call concurrently (Phase II scores candidates on a
/// thread pool); when two threads race to encode the same concept the loser's
/// encoding is discarded and the winner's is returned to both. Clear must
/// not run concurrently with readers — it is only called from
/// NotifyWeightsChanged, which by contract happens while no scoring runs.
class ConceptEncodingCache {
 public:
  explicit ConceptEncodingCache(size_t num_slots) : slots_(num_slots) {}
  ~ConceptEncodingCache() { Clear(); }

  ConceptEncodingCache(const ConceptEncodingCache&) = delete;
  ConceptEncodingCache& operator=(const ConceptEncodingCache&) = delete;

  /// The cached encoding for `slot`, or nullptr when absent. Counts a
  /// `ncl.concept_cache` hit or miss.
  const ConceptEncoding* Get(size_t slot) const {
    const ConceptEncoding* encoding =
        slots_[slot].load(std::memory_order_acquire);
    const auto& metrics = internal::GetConceptCacheMetrics();
    (encoding != nullptr ? metrics.hits : metrics.misses)->Increment();
    return encoding;
  }

  /// Install `encoding` at `slot` unless another thread won the race; either
  /// way returns the encoding now cached at `slot`.
  const ConceptEncoding* Put(size_t slot,
                             std::unique_ptr<ConceptEncoding> encoding) {
    ConceptEncoding* expected = nullptr;
    ConceptEncoding* candidate = encoding.release();
    if (slots_[slot].compare_exchange_strong(expected, candidate,
                                             std::memory_order_acq_rel)) {
      internal::GetConceptCacheMetrics().fills->Increment();
      return candidate;
    }
    delete candidate;  // lost the race; `expected` holds the winner
    internal::GetConceptCacheMetrics().fill_races->Increment();
    return expected;
  }

  /// Drop every cached encoding. Not safe concurrently with Get/Put.
  void Clear() {
    uint64_t evicted = 0;
    for (auto& slot : slots_) {
      ConceptEncoding* encoding = slot.exchange(nullptr, std::memory_order_acq_rel);
      if (encoding != nullptr) ++evicted;
      delete encoding;
    }
    const auto& metrics = internal::GetConceptCacheMetrics();
    metrics.invalidations->Increment();
    metrics.evictions->Increment(evicted);
  }

  size_t num_slots() const { return slots_.size(); }

  /// Number of populated slots (O(n); diagnostics/tests).
  size_t NumCached() const {
    size_t count = 0;
    for (const auto& slot : slots_) {
      if (slot.load(std::memory_order_acquire) != nullptr) ++count;
    }
    return count;
  }

 private:
  std::vector<std::atomic<ConceptEncoding*>> slots_;
};

/// \brief One candidate in a batched Phase-II scoring call.
///
/// The target is borrowed (typically the shared-word-filtered query residue
/// the linker builds per candidate) and must outlive the call; `log_prob`
/// is the output slot.
struct BatchScoreLane {
  ontology::ConceptId concept_id = 0;
  const std::vector<text::WordId>* target = nullptr;
  double log_prob = 0.0;  ///< out: log p(target | concept)
};

/// \brief Reusable scratch for the batched scorer (one per thread).
///
/// Buffers are sized for `lanes` lock-step rows; Prepare grows them but
/// never shrinks, so a context reused across calls allocates only on the
/// largest shape seen.
class BatchInferenceContext {
 public:
  void Prepare(size_t lanes, size_t dim, size_t vocab, size_t pieces,
               size_t attn_rows) {
    Grow(h_, lanes * dim);
    Grow(c_, lanes * dim);
    Grow(x_, lanes * dim);
    Grow(lstm_scratch_, 2 * lanes * dim);
    Grow(composite_, lanes * pieces * dim);
    Grow(s_tilde_, lanes * dim);
    Grow(logits_, lanes * vocab);
    Grow(attn_scores_, attn_rows);
  }

  float* h() { return h_.data(); }
  float* c() { return c_.data(); }
  float* x() { return x_.data(); }
  float* lstm_scratch() { return lstm_scratch_.data(); }
  float* composite() { return composite_.data(); }
  float* s_tilde() { return s_tilde_.data(); }
  float* logits() { return logits_.data(); }
  float* attn_scores() { return attn_scores_.data(); }

 private:
  static void Grow(std::vector<float>& buf, size_t n) {
    if (buf.size() < n) buf.resize(n);
  }

  std::vector<float> h_;
  std::vector<float> c_;
  std::vector<float> x_;
  std::vector<float> lstm_scratch_;
  std::vector<float> composite_;
  std::vector<float> s_tilde_;
  std::vector<float> logits_;
  std::vector<float> attn_scores_;
};

}  // namespace ncl::comaid
