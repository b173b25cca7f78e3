// Batched ED scoring — the Fig. 11 ED phase with lock-step candidate
// batching (ComAidModel::ScoreLogProbFastBatch) at its default tile width
// against the same scorer run one lane per tile (max_lanes = 1), both in the
// serving configuration: one scoring thread (the service parallelises
// across queries, not within one) and concept encodings precomputed, so the
// comparison isolates the decoder loop.
//
// Each query's lanes are built once, as NclLinker builds them (rewrite,
// Phase-I top-k, shared-word removal), and only the scorer call is timed.
// Reported per (d, k): mean ED time per query in 1-lane vs full tiles and
// the ed_batch_speedup ratio. Both widths compute bit-identical scores
// (same canonical reduction order, pinned by tests), so the speedup is pure
// kernel/memory efficiency: the decoder weights — dominated by the V x d
// softmax projection — stream once per decode step for a whole tile of
// candidates instead of once per candidate.
//
// Acceptance (tracked in BENCH_fig11_batch.json): speedup >= 1.5x at
// d = 128, k = 10. Rounds are interleaved and the per-configuration min is
// kept so machine noise hits both widths equally.

#include <algorithm>
#include <iostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "util/env.h"
#include "util/json_writer.h"
#include "util/stopwatch.h"
#include "util/table_writer.h"

using namespace ncl;
using namespace ncl::bench;

namespace {

/// One query's Phase-II lanes; targets are owned so the lanes stay valid.
struct QueryLanes {
  std::vector<std::vector<text::WordId>> targets;
  std::vector<comaid::BatchScoreLane> lanes;
};

/// The lanes NclLinker scores for each query at candidate count k: the
/// rewritten query's top-k candidates, each decoding the query ids minus
/// the words of its canonical description (§5).
std::vector<QueryLanes> BuildLanes(
    const Pipeline& pipeline, const std::vector<linking::EvalQuery>& queries,
    size_t k) {
  std::vector<QueryLanes> all(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::vector<std::string> rewritten =
        pipeline.rewriter->Rewrite(queries[q].tokens);
    const std::vector<text::WordId> ids = pipeline.model->MapTokens(rewritten);
    const std::vector<ontology::ConceptId> candidates =
        pipeline.candidates->TopK(rewritten, k);
    QueryLanes& out = all[q];
    out.targets.resize(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const auto& words = pipeline.model->ConceptWords(candidates[i]);
      const std::unordered_set<text::WordId> shared(words.begin(), words.end());
      for (text::WordId id : ids) {
        if (shared.count(id) == 0) out.targets[i].push_back(id);
      }
      out.lanes.push_back(
          comaid::BatchScoreLane{candidates[i], &out.targets[i]});
    }
  }
  return all;
}

/// Mean ED time per query [us] with lock-step tiles of `tile` lanes.
double MeanScoreUs(const comaid::ComAidModel& model,
                   std::vector<QueryLanes>& queries, size_t tile,
                   comaid::BatchInferenceContext* ctx) {
  double total = 0.0;
  for (QueryLanes& query : queries) {
    Stopwatch watch;
    model.ScoreLogProbFastBatch(query.lanes.data(), query.lanes.size(), ctx,
                                tile);
    total += watch.ElapsedMicros();
  }
  return total / static_cast<double>(queries.size());
}

}  // namespace

int main() {
  const bool full = BenchFullMode();
  const double scale = full ? 0.6 : 0.35;
  std::vector<size_t> dims = {32, 128};
  if (full) dims.push_back(256);
  constexpr double kAcceptanceMinSpeedup = 1.5;
  constexpr size_t kAcceptanceDim = 128;
  constexpr size_t kAcceptanceK = 10;
  constexpr size_t kTile = comaid::ComAidModel::kDefaultScoreLanes;

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("fig11_batch");
  json.Key("full_mode").Value(full);
  json.Key("scale").Value(scale);
#if defined(__AVX2__) && defined(__FMA__)
  json.Key("simd").Value("avx2+fma");
#else
  json.Key("simd").Value("scalar");
#endif
  json.Key("batch_lanes").Value(kTile);
  json.Key("baseline").Value("ScoreLogProbFastBatch with max_lanes = 1");
  json.Key("acceptance_min_speedup").Value(kAcceptanceMinSpeedup);
  json.Key("sweeps").BeginArray();

  double acceptance_speedup = 0.0;
  for (size_t d : dims) {
    PipelineConfig config;
    config.corpus = Corpus::kHospitalX;
    config.scale = scale;
    config.dim = d;
    config.train_epochs = 2;  // timings need a model, not a good one
    auto pipeline = BuildPipeline(config);
    const auto& queries = pipeline->eval_groups[0];
    pipeline->model->PrecomputeConceptEncodings();

    TableWriter table("Batched ED: 1-lane vs " +
                          std::to_string(kTile) + "-lane tiles [us/query], d=" +
                          std::to_string(d),
                      {"k", "ED 1-lane", "ED batched", "speedup"});
    for (size_t k : {10u, 50u}) {
      std::vector<QueryLanes> lanes = BuildLanes(*pipeline, queries, k);
      comaid::BatchInferenceContext ctx;

      // Warm-up (context buffers, encoding cache), then interleaved rounds
      // keeping the per-width min.
      MeanScoreUs(*pipeline->model, lanes, 1, &ctx);
      MeanScoreUs(*pipeline->model, lanes, kTile, &ctx);
      const int rounds = full ? 5 : 3;
      double single_us = 0.0, batched_us = 0.0;
      auto keep_min = [](double& slot, double value) {
        slot = slot == 0.0 ? value : std::min(slot, value);
      };
      for (int round = 0; round < rounds; ++round) {
        keep_min(single_us, MeanScoreUs(*pipeline->model, lanes, 1, &ctx));
        keep_min(batched_us, MeanScoreUs(*pipeline->model, lanes, kTile, &ctx));
      }
      const double speedup = batched_us > 0.0 ? single_us / batched_us : 0.0;
      if (d == kAcceptanceDim && k == kAcceptanceK) {
        acceptance_speedup = speedup;
      }
      table.AddRow(std::to_string(k), {single_us, batched_us, speedup}, 2);

      json.BeginObject();
      json.Key("dim").Value(d);
      json.Key("k").Value(k);
      json.Key("num_queries").Value(queries.size());
      json.Key("rounds").Value(rounds);
      json.Key("ed_single_us").Value(single_us);
      json.Key("ed_batched_us").Value(batched_us);
      json.Key("ed_batch_speedup").Value(speedup);
      json.EndObject();
    }
    table.Print();
  }
  json.EndArray();

  const bool acceptance_ok = acceptance_speedup >= kAcceptanceMinSpeedup;
  json.Key("acceptance").BeginObject();
  json.Key("dim").Value(kAcceptanceDim);
  json.Key("k").Value(kAcceptanceK);
  json.Key("ed_batch_speedup").Value(acceptance_speedup);
  json.Key("acceptance_ok").Value(acceptance_ok);
  json.EndObject();
  json.EndObject();

  Status status = json.WriteFile("BENCH_fig11_batch.json");
  if (!status.ok()) {
    std::cerr << "failed to write BENCH_fig11_batch.json: " << status.ToString()
              << "\n";
    return 1;
  }
  std::cout << "wrote BENCH_fig11_batch.json (acceptance "
            << (acceptance_ok ? "ok" : "FAILED") << ": d=128 k=10 speedup "
            << acceptance_speedup << "x, min " << kAcceptanceMinSpeedup
            << "x)\n";
  return 0;
}
