// Tape-free Phase-II scoring (see model.h::ScoreLogProbFastBatch) — the
// only inference scorer; the tape path (model.cc) is kept for training.
//
// Scoring k candidates one at a time runs k independent decoder loops, each
// a chain of mat-vecs over the same weight matrices — the logits projection
// alone streams the V x d softmax weight k times per decode step. This file
// runs up to max_lanes candidates in lock-step: per step, the per-lane
// states stack into (active x d) activation matrices and every weight is
// applied once via the blocked GemmNT kernels (nn/gemm.h). A one-lane tile
// is the same code with m = 1.
//
// Ragged candidate lengths: lanes are sorted by target length (descending,
// stable), so "lane finished" masking is just the active row prefix
// shrinking — no wasted flops on padded rows, no masking arithmetic in the
// kernels. Per-lane work that cannot batch (attention over the lane's own
// encoder states, cross-entropy on its own logits row) runs row by row, and
// every GemmNT element reduces in the same canonical order whatever the row
// count, so a lane's score is bit-stable under any batch composition
// (pinned by tests/comaid/batch_inference_test.cc). Parity with the tape
// path is pinned to 1e-5 in tests/comaid/inference_test.cc; keep the
// float/double accumulation choices below in sync with tape.cc when touching
// either.

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "comaid/model.h"
#include "nn/gemm.h"
#include "nn/vecmath.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ncl::comaid {

namespace {

/// Fused dot-product attention on values (Eqs. 5-7): out = sum_r alpha_r v_r
/// with alpha = softmax(values * key). `scores` must hold values.rows()
/// floats; `out` holds values.cols() floats and is overwritten.
void AttentionInto(const nn::Matrix& values, const float* key, float* scores,
                   float* out) {
  const size_t n = values.rows();
  const size_t d = values.cols();
  values.MatVecInto(key, scores);  // e_r = v_r . s

  float max_score = -std::numeric_limits<float>::infinity();
  for (size_t r = 0; r < n; ++r) max_score = std::max(max_score, scores[r]);
  nn::ExpShiftedInplace(scores, n, max_score);
  float denom = 0.0f;
  for (size_t r = 0; r < n; ++r) denom += scores[r];
  const float inv_denom = 1.0f / denom;

  std::fill(out, out + d, 0.0f);
  for (size_t r = 0; r < n; ++r) {
    const float alpha = scores[r] * inv_denom;
    const float* row = values.row_data(r);
    for (size_t j = 0; j < d; ++j) out[j] += alpha * row[j];
  }
}

/// -log softmax(logits)[gold] with the same accumulation scheme as
/// Tape::SoftmaxCrossEntropy (float max, double denominator).
double CrossEntropyValue(const float* logits, size_t vocab, int32_t gold) {
  float max_logit = -std::numeric_limits<float>::infinity();
  for (size_t i = 0; i < vocab; ++i) max_logit = std::max(max_logit, logits[i]);
  double denom = nn::SumExpShifted(logits, vocab, max_logit);
  double log_denom = std::log(denom) + static_cast<double>(max_logit);
  return log_denom - static_cast<double>(logits[static_cast<size_t>(gold)]);
}

struct BatchScoreMetrics {
  obs::Counter* calls;
  obs::Histogram* lanes;
};

const BatchScoreMetrics& GetBatchScoreMetrics() {
  static const BatchScoreMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return BatchScoreMetrics{registry.GetCounter("ncl.ed_batch.calls"),
                             registry.GetHistogram("ncl.ed_batch.lanes")};
  }();
  return metrics;
}

}  // namespace

void ComAidModel::ScoreBatchTile(BatchScoreLane* lanes, size_t m,
                                 BatchInferenceContext* ctx) const {
  const size_t d = config_.dim;
  const size_t vocab = vocab_.size();
  const size_t comp_width = w_d_->value.cols();
  const bool use_text = config_.text_attention;
  // Every concept carries beta >= 1 ancestor rows under structural
  // attention (Def. 4.1 padding; the constructor rejects beta = 0), so all
  // lanes share W_d's composite width.
  const bool use_structure = config_.structural_attention;

  std::vector<const ConceptEncoding*> encs(m);
  size_t attn_rows = 1;
  for (size_t i = 0; i < m; ++i) {
    NCL_CHECK(lanes[i].target != nullptr) << "batch lane without a target";
    NCL_CHECK(lanes[i].concept_id > 0 &&
              static_cast<size_t>(lanes[i].concept_id) < concept_words_.size())
        << "invalid concept id " << lanes[i].concept_id;
    encs[i] = &EncodingFor(lanes[i].concept_id);
    attn_rows = std::max(
        attn_rows, std::max(encs[i]->encoder_states.rows(),
                            encs[i]->ancestors.rows()));
  }

  // Longest-first lane order: ragged lengths become a shrinking active row
  // prefix. Stable on the original index so the order (and therefore the
  // whole computation) is deterministic.
  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const size_t sa = lanes[a].target->size();
    const size_t sb = lanes[b].target->size();
    if (sa != sb) return sa > sb;
    return a < b;
  });

  ctx->Prepare(m, d, vocab, comp_width / d, attn_rows);

  float* h = ctx->h();                // m x d decoder hidden states
  float* cell = ctx->c();             // m x d decoder cell states
  float* x = ctx->x();                // m x d previous-word embeddings
  float* composite = ctx->composite();  // m x comp_width
  float* s_tilde = ctx->s_tilde();    // m x d
  float* logits = ctx->logits();      // m x vocab

  // Per-lane losses sum in float, like Tape::AddScalars over float-valued
  // SoftmaxCrossEntropy nodes, so tape and tape-free scores agree to float
  // round-off rather than diverging on long targets.
  std::vector<float> loss(m, 0.0f);
  std::vector<text::WordId> prev_word(m, bos_id_);
  // Decoder initial state per lane: s_0 = h_n^c, cell = 0 (§4.1.2).
  for (size_t r = 0; r < m; ++r) {
    const float* h0 = encs[order[r]]->final_state();
    std::copy(h0, h0 + d, h + r * d);
    std::fill(cell + r * d, cell + (r + 1) * d, 0.0f);
  }

  const float* b_d = b_d_->value.data();
  const float* b_s = b_s_->value.data();
  const size_t max_steps = lanes[order[0]].target->size() + 1;
  size_t active = m;
  for (size_t t = 0; t < max_steps; ++t) {
    // Lanes decode target.size() + 1 factors (words then <eos>); sorted
    // longest-first, finished lanes always form a suffix.
    while (active > 0 && lanes[order[active - 1]].target->size() + 1 <= t) {
      --active;
    }
    if (active == 0) break;

    // Gather previous-word embeddings, then one lock-step LSTM move.
    for (size_t r = 0; r < active; ++r) {
      const float* row = EmbeddingRow(prev_word[r]);
      std::copy(row, row + d, x + r * d);
    }
    decoder_->StepValueBatch(active, x, h, cell, h, cell, ctx->lstm_scratch());

    // Composite rows: [s_t ; tc_t ; sc_t] (Eq. 8). Attention stays per lane
    // — each lane attends over its own concept's encoder states.
    for (size_t r = 0; r < active; ++r) {
      const ConceptEncoding& enc = *encs[order[r]];
      const float* h_row = h + r * d;
      float* comp_row = composite + r * comp_width;
      std::copy(h_row, h_row + d, comp_row);
      size_t offset = d;
      if (use_text) {
        AttentionInto(enc.encoder_states, h_row, ctx->attn_scores(),
                      comp_row + offset);
        offset += d;
      }
      if (use_structure) {
        AttentionInto(enc.ancestors, h_row, ctx->attn_scores(),
                      comp_row + offset);
      }
    }

    // s~ = tanh(W_d [s; tc; sc] + b_d): one GemmNT instead of `active`
    // mat-vecs against W_d.
    nn::GemmNT(active, d, comp_width, composite, comp_width,
               w_d_->value.data(), comp_width, s_tilde, d);
    for (size_t r = 0; r < active; ++r) {
      float* row = s_tilde + r * d;
      for (size_t j = 0; j < d; ++j) row[j] += b_d[j];
    }
    nn::TanhInplace(s_tilde, active * d);

    // logits = W_s s~ + b_s (Eq. 9) — the dominant GEMM: the V x d softmax
    // weight streams once per step for the whole batch.
    nn::GemmNT(active, vocab, d, s_tilde, d, w_s_->value.data(), d, logits,
               vocab);
    for (size_t r = 0; r < active; ++r) {
      float* row = logits + r * vocab;
      for (size_t j = 0; j < vocab; ++j) row[j] += b_s[j];
      const auto& target = *lanes[order[r]].target;
      const text::WordId gold = t < target.size() ? target[t] : eos_id_;
      loss[r] += static_cast<float>(
          CrossEntropyValue(row, vocab, static_cast<int32_t>(gold)));
      prev_word[r] = gold;
    }
  }

  for (size_t r = 0; r < m; ++r) {
    lanes[order[r]].log_prob = -static_cast<double>(loss[r]);
  }
}

void ComAidModel::ScoreLogProbFastBatch(BatchScoreLane* lanes, size_t num_lanes,
                                        BatchInferenceContext* ctx,
                                        size_t max_lanes) const {
  if (num_lanes == 0) return;
  NCL_CHECK(max_lanes > 0) << "max_lanes must be positive";
  NCL_TRACE_SPAN("ncl.ed_batch.score");
  thread_local BatchInferenceContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  const BatchScoreMetrics& metrics = GetBatchScoreMetrics();
  metrics.calls->Increment();
  metrics.lanes->Record(num_lanes);
  for (size_t start = 0; start < num_lanes; start += max_lanes) {
    ScoreBatchTile(lanes + start, std::min(max_lanes, num_lanes - start), ctx);
  }
}

}  // namespace ncl::comaid
