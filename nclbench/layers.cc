#include "layers.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <unordered_set>

#include "comaid/inference.h"
#include "nn/gemm.h"

namespace nclbench {

using namespace ncl;

namespace {

/// Lanes per lock-step tile (ComAidModel's default batch width).
constexpr size_t kTile = comaid::ComAidModel::kDefaultScoreLanes;

/// One query's Phase-II lanes, built as the linker builds them: the mapped
/// query minus the words each candidate's description shares with it (§5).
struct QueryLanes {
  std::vector<std::vector<text::WordId>> targets;
  std::vector<comaid::BatchScoreLane> lanes;
};

/// Decoder GEMM FLOPs of one lane for one decode step: four LSTM gates
/// (input and recurrent d x d products), the composite layer over
/// [s; text context; structure context] and the V x d logits.
double FlopsPerLaneStep(const comaid::ComAidModel& model) {
  const double d = static_cast<double>(model.config().dim);
  const double v = static_cast<double>(model.vocabulary().size());
  const double pieces = 1.0 + (model.config().text_attention ? 1.0 : 0.0) +
                        (model.config().structural_attention ? 1.0 : 0.0);
  return 2.0 * (8.0 * d * d + pieces * d * d + v * d);
}

/// Bytes of decoder weights one tile-step streams (read once per tile).
double WeightBytesPerTileStep(const comaid::ComAidModel& model) {
  const double d = static_cast<double>(model.config().dim);
  const double v = static_cast<double>(model.vocabulary().size());
  const double pieces = 1.0 + (model.config().text_attention ? 1.0 : 0.0) +
                        (model.config().structural_attention ? 1.0 : 0.0);
  return 4.0 * (8.0 * d * d + 4.0 * d + pieces * d * d + d + v * d + v);
}

/// Activation bytes one lane moves per step: the embedding row, the LSTM
/// state and gates, composite and s~ rows, and the logits row written and
/// read back by the softmax.
double ActivationBytesPerLaneStep(const comaid::ComAidModel& model) {
  const double d = static_cast<double>(model.config().dim);
  const double v = static_cast<double>(model.vocabulary().size());
  return 4.0 * (d + 2.0 * d + 4.0 * d + 3.0 * d + d + 2.0 * v);
}

/// Wall time of `fn` in microseconds.
template <typename Fn>
double TimeUs(Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  return (NowNs() - start) * 1e-3;
}

/// GFLOP/s of GemmNT at m x n x k, repeated for at least `min_us`.
void GemmRate(size_t m, size_t n, size_t k, double min_us, double* flops,
              double* us) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> uniform(-1.0f, 1.0f);
  std::vector<float> a(m * k), b(n * k), c(m * n);
  for (float& x : a) x = uniform(rng);
  for (float& x : b) x = uniform(rng);
  nn::GemmNT(m, n, k, a.data(), k, b.data(), k, c.data(), n);  // warm
  size_t reps = 0;
  double elapsed = 0.0;
  while (elapsed < min_us) {
    elapsed += TimeUs([&] {
      for (int r = 0; r < 16; ++r) {
        nn::GemmNT(m, n, k, a.data(), k, b.data(), k, c.data(), n);
      }
    });
    reps += 16;
  }
  *flops += 2.0 * static_cast<double>(m * n * k) * static_cast<double>(reps);
  *us += elapsed;
}

}  // namespace

void MeasureLayers(const LayerProbe& probe, Report* report) {
  const comaid::ComAidModel& model = *probe.model;
  std::vector<QueryLanes> per_query(probe.queries.size());
  Dist rewrite_us, candgen_us, ed_us;

  // Phase I spans, and the Phase-II lanes each query produces.
  for (size_t q = 0; q < probe.queries.size(); ++q) {
    const std::vector<std::string>& tokens = probe.queries[q]->tokens;
    std::vector<std::string> rewritten;
    rewrite_us.Add(TimeUs([&] { rewritten = probe.rewriter->Rewrite(tokens); }));
    std::vector<ontology::ConceptId> candidates;
    candgen_us.Add(TimeUs([&] { candidates = probe.candidates->TopK(rewritten, probe.k); }));
    const std::vector<text::WordId> ids = model.MapTokens(rewritten);
    QueryLanes& lanes = per_query[q];
    lanes.targets.resize(candidates.size());
    lanes.lanes.resize(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const auto& description = model.ConceptWords(candidates[i]);
      const std::unordered_set<text::WordId> shared(description.begin(),
                                                    description.end());
      for (text::WordId word : ids) {
        if (shared.count(word) == 0) lanes.targets[i].push_back(word);
      }
      lanes.lanes[i].concept_id = candidates[i];
      lanes.lanes[i].target = &lanes.targets[i];
    }
  }

  // ED span per query: the query's k lanes as one batched scoring call.
  comaid::BatchInferenceContext ctx;
  for (int pass = 0; pass < 2; ++pass) {  // pass 0 warms the context
    for (QueryLanes& lanes : per_query) {
      const double us = TimeUs([&] {
        model.ScoreLogProbFastBatch(lanes.lanes.data(), lanes.lanes.size(), &ctx,
                                    kTile);
      });
      if (pass == 1) ed_us.Add(us);
    }
  }

  // Full tiles: every lane of the sample pooled in query order, scored kTile
  // at a time, as a LinkBatch over many queries does.
  std::vector<comaid::BatchScoreLane> pooled;
  for (const QueryLanes& lanes : per_query) {
    pooled.insert(pooled.end(), lanes.lanes.begin(), lanes.lanes.end());
  }
  const double lane_step_flops = FlopsPerLaneStep(model);
  double tile_flops = 0.0, tile_us = 0.0, weight_bytes = 0.0, act_bytes = 0.0;
  std::vector<double> per_lane_us;
  for (size_t start = 0; start + kTile <= pooled.size(); start += kTile) {
    size_t max_steps = 0;
    for (size_t i = start; i < start + kTile; ++i) {
      const double steps = static_cast<double>(pooled[i].target->size() + 1);
      tile_flops += steps * lane_step_flops;
      act_bytes += steps * ActivationBytesPerLaneStep(model);
      max_steps = std::max(max_steps, pooled[i].target->size() + 1);
    }
    weight_bytes += static_cast<double>(max_steps) * WeightBytesPerTileStep(model);
    const double us = TimeUs([&] {
      model.ScoreLogProbFastBatch(pooled.data() + start, kTile, &ctx, kTile);
    });
    tile_us += us;
    per_lane_us.push_back(us / static_cast<double>(kTile));
  }
  const size_t full_tiles = per_lane_us.size();
  const double tiled_queries =
      pooled.empty() ? 0.0
                     : static_cast<double>(full_tiles * kTile) /
                           static_cast<double>(pooled.size()) *
                           static_cast<double>(per_query.size());

  // LinkBatch at the workload's batch shape.
  const size_t batch = std::max<size_t>(1, static_cast<size_t>(std::lround(probe.batch_queries)));
  std::vector<double> batch_us_per_query;
  for (size_t start = 0; start + batch <= probe.queries.size(); start += batch) {
    std::vector<std::vector<std::string>> queries;
    for (size_t q = start; q < start + batch; ++q) queries.push_back(probe.queries[q]->tokens);
    const double us = TimeUs([&] { probe.link_batch(queries); });
    if (start > 0) batch_us_per_query.push_back(us / static_cast<double>(batch));
  }

  // Lanes the workload's batches put through the scorer vs the tile slots
  // they occupy.
  const double lanes_per_query = per_query.empty() ? 0.0
      : static_cast<double>(pooled.size()) / static_cast<double>(per_query.size());
  const double batch_lanes = lanes_per_query * probe.batch_queries;
  const double tiles = std::max(1.0, std::ceil(batch_lanes / static_cast<double>(kTile)));
  const double tile_fill = batch_lanes / (tiles * static_cast<double>(kTile));

  // GemmNT at the decoder's gate (m x d x d) and logits (m x V x d) shapes.
  const size_t d = model.config().dim;
  const size_t v = model.vocabulary().size();
  double gemm_flops = 0.0, gemm_us = 0.0;
  GemmRate(kTile, d, d, 50'000.0, &gemm_flops, &gemm_us);
  GemmRate(kTile, v, d, 50'000.0, &gemm_flops, &gemm_us);
  const double gemm_gflops = gemm_us > 0 ? gemm_flops / gemm_us * 1e-3 : 0.0;
  const double ed_gflops = tile_us > 0 ? tile_flops / tile_us * 1e-3 : 0.0;

  const size_t n = probe.queries.size();
  report->Add("linking.rewrite_us.p50", rewrite_us.Pct(0.5), "us", n,
              "post-run replay span: QueryRewriter::Rewrite");
  report->Add("linking.candgen_us.p50", candgen_us.Pct(0.5), "us", n,
              "post-run replay span: CandidateGenerator::TopK");
  report->Add("linking.ed_us.p50", ed_us.Pct(0.5), "us", n,
              "post-run replay span: ScoreLogProbFastBatch on one query's lanes");
  report->Add("linking.link_batch_us_per_query", Median(batch_us_per_query), "us",
              batch_us_per_query.size(),
              "post-run replay span: LinkBatch of " + std::to_string(batch) + " queries, per query");
  report->Add("model.score_us_per_lane", Median(per_lane_us), "us", full_tiles,
              "post-run replay span: ScoreLogProbFastBatch on full tiles of " + std::to_string(kTile));
  report->Add("model.tile_fill", tile_fill, "fraction", 0,
              "computed: " + FormatNumber(batch_lanes) + " lanes per batch");
  report->Add("kernels.gemm_nt.gflops", gemm_gflops, "GFLOP/s", 0,
              "GemmNT " + std::to_string(kTile) + "x" + std::to_string(d) + "x" +
                  std::to_string(d) + " and " + std::to_string(kTile) + "x" +
                  std::to_string(v) + "x" + std::to_string(d) + ", one thread");
  report->Add("kernels.ed_flops_per_query",
              tiled_queries > 0 ? tile_flops / tiled_queries : 0.0, "FLOP", 0,
              "computed from tensor sizes (decoder GEMMs)");
  report->Add("kernels.ed_bytes_per_query",
              tiled_queries > 0 ? (weight_bytes + act_bytes) / tiled_queries : 0.0,
              "B", 0, "computed from tensor sizes, full tiles");
  report->Add("kernels.ed_roofline_frac",
              gemm_gflops > 0 ? ed_gflops / gemm_gflops : 0.0, "fraction", 0,
              "ED GFLOP/s " + FormatNumber(ed_gflops) + " / GemmNT GFLOP/s");
}

}  // namespace nclbench
