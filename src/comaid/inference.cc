// Concept-encoding cache and tape-free concept encoding (see
// comaid/inference.h). The decoder loop that consumes the encodings lives in
// batch_inference.cc.

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "comaid/model.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace ncl::comaid {

namespace internal {

const ConceptCacheMetrics& GetConceptCacheMetrics() {
  static const ConceptCacheMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return ConceptCacheMetrics{
        registry.GetCounter("ncl.concept_cache.hits"),
        registry.GetCounter("ncl.concept_cache.misses"),
        registry.GetCounter("ncl.concept_cache.fills"),
        registry.GetCounter("ncl.concept_cache.fill_races"),
        registry.GetCounter("ncl.concept_cache.invalidations"),
        registry.GetCounter("ncl.concept_cache.evictions")};
  }();
  return metrics;
}

}  // namespace internal

void ComAidModel::ComputeConceptEncoding(ontology::ConceptId concept_id,
                                         ConceptEncoding* out) const {
  const size_t d = config_.dim;
  const auto& words = concept_words_[static_cast<size_t>(concept_id)];
  NCL_DCHECK(!words.empty());

  // Encoder pass over the canonical description, keeping every h_t (the
  // text attention needs the full state sequence, Eqs. 5-6).
  std::vector<float> zero(d, 0.0f);
  std::vector<float> cell(d, 0.0f);
  std::vector<float> scratch(2 * d);
  out->encoder_states = nn::Matrix(words.size(), d);
  const float* h_prev = zero.data();
  for (size_t t = 0; t < words.size(); ++t) {
    float* h_out = out->encoder_states.row_data(t);
    encoder_->StepValue(EmbeddingRow(words[t]), h_prev, cell.data(), h_out,
                        cell.data(), scratch.data());
    h_prev = h_out;
  }

  // Structural context (Def. 4.1): final encoder states of the ancestors,
  // with duplicate slots kept so the attention softmax matches the tape
  // path's repeated values.
  // Def. 4.1 pads the context to exactly beta >= 1 slots, so under
  // structural attention every concept has ancestor rows.
  out->ancestors = nn::Matrix();
  if (config_.structural_attention) {
    std::vector<ontology::ConceptId> context =
        onto_->AncestorContext(concept_id, config_.beta);
    out->ancestors = nn::Matrix(context.size(), d);
    std::unordered_map<ontology::ConceptId, size_t> first_row;
    std::vector<float> h(d);
    for (size_t r = 0; r < context.size(); ++r) {
      float* row = out->ancestors.row_data(r);
      auto it = first_row.find(context[r]);
      if (it != first_row.end()) {
        const float* src = out->ancestors.row_data(it->second);
        std::copy(src, src + d, row);
        continue;
      }
      const auto& anc_words = concept_words_[static_cast<size_t>(context[r])];
      std::fill(h.begin(), h.end(), 0.0f);
      std::fill(cell.begin(), cell.end(), 0.0f);
      for (text::WordId word : anc_words) {
        encoder_->StepValue(EmbeddingRow(word), h.data(), cell.data(),
                            h.data(), cell.data(), scratch.data());
      }
      std::copy(h.begin(), h.end(), row);
      first_row.emplace(context[r], r);
    }
  }
}

const ConceptEncoding& ComAidModel::EncodingFor(
    ontology::ConceptId concept_id) const {
  const size_t slot = static_cast<size_t>(concept_id);
  if (const ConceptEncoding* cached = encoding_cache_->Get(slot)) {
    return *cached;
  }
  auto encoding = std::make_unique<ConceptEncoding>();
  ComputeConceptEncoding(concept_id, encoding.get());
  return *encoding_cache_->Put(slot, std::move(encoding));
}

size_t ComAidModel::PrecomputeConceptEncodings(ThreadPool* pool) const {
  std::vector<ontology::ConceptId> ids = onto_->AllConcepts();
  std::atomic<size_t> computed{0};
  auto encode_one = [&](size_t i) {
    const size_t slot = static_cast<size_t>(ids[i]);
    if (encoding_cache_->Get(slot) != nullptr) return;
    auto encoding = std::make_unique<ConceptEncoding>();
    ComputeConceptEncoding(ids[i], encoding.get());
    encoding_cache_->Put(slot, std::move(encoding));
    computed.fetch_add(1, std::memory_order_relaxed);
  };
  if (pool != nullptr) {
    pool->ParallelFor(ids.size(), encode_one);
  } else {
    for (size_t i = 0; i < ids.size(); ++i) encode_one(i);
  }
  return computed.load();
}

void ComAidModel::InvalidateConceptEncodings() const { encoding_cache_->Clear(); }

void ComAidModel::NotifyWeightsChanged() {
  weights_version_.fetch_add(1, std::memory_order_acq_rel);
  InvalidateConceptEncodings();
}

}  // namespace ncl::comaid
