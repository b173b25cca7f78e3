// nclbench — the end-to-end benchmark of the NCL linking system.
//
//   nclbench --workload <serve_open|fleet_mixed|bulk_link> --seed N
//            --seconds S --trace <0|1> [--workdir DIR]
//
// Each workload sets its system up kSetupReps times (setup_s is the
// median) and generates its traffic from --seed. The timed part is a series
// of short rounds for --seconds (longer if too few rounds were calm or a
// level has too few samples for its p99); each round runs one slice at each
// of three levels (low, mid, high; see workloads.h), a closed-loop slice
// with work always waiting (throughput_qps) and one probe of a staircase
// over a fixed rate ladder (max_rate_qps). Per-run figures pool (p50s) or
// take the median of (throughput) the slices of the rounds in which the
// hypervisor stole little CPU time (kCalmStealPct), because a shared host's
// vCPU stalls come and go within a run. A seeded sample of served answers
// must be bit-identical to NclLinker::LinkDetailed on the snapshot that
// served them; any mismatch, or a generator that fell behind, fails the
// run.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same rounds
// with the workload's in-run spans on, then replays the linking, model and
// kernel calls on a sample of the run's queries with spans around each, and
// prints the per-layer metrics. The last line of standard output is the
// result object.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "obs/metrics.h"
#include "stats.h"
#include "util/thread_pool.h"
#include "workloads.h"

using namespace ncl;
using namespace nclbench;

namespace {

constexpr size_t kSetupReps = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string workdir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args->workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        args->trace = value == "1";
      } else if (flag == "--workdir") {
        args->workdir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args->seconds > 0;
}

// --- The correctness gate ----------------------------------------------------

struct Served {
  const Request* request;
  const Outcome* outcome;
};

struct GateResult {
  bool ok = false;
  std::string message;
  /// Offline top-1 over the first kTop1Queries distinct queries served.
  uint64_t top1_hits = 0, top1_n = 0;
};

/// Distinct queries top1_acc is taken over: the first this many served.
constexpr size_t kTop1Queries = 4000;

/// The correctness gate, against NclLinker::LinkDetailed on the snapshot
/// that served each answer: every kept answer must match it bit for bit
/// (ids and log_prob), and the first answer to each of the first
/// kTop1Queries distinct queries must have its top-1 concept. top1_acc is
/// the offline linker's accuracy on those queries, so served and offline
/// accuracy are equal whenever the gate passes.
GateResult Gate(const Workload& workload, const QueryLists& queries,
                const std::vector<Served>& served) {
  struct Check {
    const Served* served;
    bool top1;  ///< counts toward top1_acc
  };
  std::vector<Check> checks;
  std::set<std::pair<uint8_t, uint32_t>> distinct;
  size_t kept = 0;
  for (const Served& s : served) {
    if (!s.outcome->ok) continue;
    const bool first = distinct.size() < kTop1Queries &&
                       distinct.emplace(s.request->tenant, s.request->query).second;
    if (s.request->keep || first) checks.push_back({&s, first});
    kept += s.request->keep;
  }
  GateResult result;
  if (kept == 0) {
    result.message = "no served answer was sampled for the gate";
    return result;
  }
  std::atomic<size_t> first_mismatch{checks.size()};
  std::atomic<uint64_t> hits{0};
  ThreadPool pool(Nproc());
  pool.ParallelFor(checks.size(), [&](size_t i) {
    const Request& request = *checks[i].served->request;
    const Outcome& outcome = *checks[i].served->outcome;
    const Query& query = queries[request.tenant][request.query];
    const auto offline =
        workload.Reference(request.tenant, outcome.version).LinkDetailed(query.tokens);
    const ontology::ConceptId offline_top1 =
        offline.empty() ? ontology::kInvalidConcept : offline.front().concept_id;
    bool same = outcome.top1 == offline_top1;
    if (request.keep) {
      const auto& online = outcome.ranking;
      same = same && online.size() == offline.size();
      for (size_t j = 0; same && j < online.size(); ++j) {
        same = online[j].concept_id == offline[j].concept_id &&
               std::memcmp(&online[j].log_prob, &offline[j].log_prob, sizeof(double)) == 0;
      }
    }
    if (checks[i].top1 && offline_top1 == query.gold) ++hits;
    size_t seen = first_mismatch.load();
    while (!same && i < seen && !first_mismatch.compare_exchange_weak(seen, i)) {
    }
  });
  if (first_mismatch.load() < checks.size()) {
    const Served& s = *checks[first_mismatch.load()].served;
    result.message = "served ranking differs from LinkDetailed (tenant " +
                     std::to_string(s.request->tenant) + ", snapshot version " +
                     std::to_string(s.outcome->version) + ")";
    return result;
  }
  result.ok = true;
  result.top1_hits = hits.load();
  result.top1_n = distinct.size();
  result.message = "gate: " + std::to_string(kept) +
                   " sampled answers bit-identical to LinkDetailed; served top-1 equal to "
                   "LinkDetailed's on the first " + std::to_string(distinct.size()) +
                   " distinct queries";
  return result;
}

// --- The timed part ----------------------------------------------------------

/// Fewest rounds in a run.
constexpr size_t kMinRounds = 4;
/// Rounds go on past --seconds until every level has ten samples beyond its
/// p99, but the timed part stops at this multiple of --seconds, so that a
/// run on a slow host still ends in time (and then fails for too few
/// samples).
constexpr double kMaxTimedFactor = 2.5;
/// Length of each round's closed-loop slice [s].
constexpr double kSaturationSliceSeconds = 0.25;
/// Shortest ladder rung [s]: long enough for an overload to grow a queue.
constexpr double kRungSeconds = 0.5;
/// The staircase for max_rate_qps (one probe per round) starts at this
/// share of the first round's closed-loop throughput.
constexpr double kStaircaseStart = 0.85;
/// Rounds in which the hypervisor stole more than kCalmStealPct of CPU time
/// do not count toward the per-run medians, as long as at least
/// kMinCalmRounds rounds remain; otherwise the calmest half counts.
/// Rounds also go on past --seconds, up to kCalmWaitFactor times it, until
/// this many rounds were calm, so that a run that met a burst of steal can
/// wait for it to pass.
constexpr size_t kMinCalmRounds = 6;
constexpr double kCalmWaitFactor = 1.5;

/// One level, measured as one short slice per round. Rounds rotate through
/// the levels so that every level samples the host's state at many points
/// of the run; per-run figures pool the slices of the counted rounds.
struct LevelSeries {
  std::string name;
  std::vector<Phase> slices;  ///< one per round
  Dist latency_ms;  ///< pooled over slices
  Dist lag_ms;
  uint64_t failed = 0;
  uint64_t backlog_max = 0;

  void Add(Phase slice) {
    latency_ms.Append(slice.latency_ms);
    lag_ms.Append(slice.lag_ms);
    failed += slice.failed;
    backlog_max = std::max(backlog_max, slice.backlog_end);
    slices.push_back(std::move(slice));
  }
  /// Latencies of the slices of the rounds marked in `counted`.
  Dist Counted(const std::vector<bool>& counted) const {
    Dist pooled;
    for (size_t r = 0; r < slices.size(); ++r) {
      if (counted[r]) pooled.Append(slices[r].latency_ms);
    }
    return pooled;
  }
  /// Largest share of any slice's latency p50 that its median send
  /// lateness makes up, taking that p50 as at least `floor_ms`.
  double WorstSliceLagShare(double floor_ms) const {
    double worst = 0.0;
    for (const Phase& slice : slices) {
      const double latency = std::max(floor_ms, slice.latency_ms.Pct(0.5));
      if (latency > 0) worst = std::max(worst, slice.lag_ms.Pct(0.5) / latency);
    }
    return worst;
  }
};

/// Everything the timed part of a run measured.
struct Timed {
  std::vector<LevelSeries> levels;  ///< low, mid, high
  std::vector<Saturation> saturations;
  /// Closed-loop slices: qps, round and whether tracing was on.
  struct SaturationSlice {
    double qps;
    size_t round;
    bool traced;
  };
  std::vector<SaturationSlice> saturation_qps;
  /// Whether tracing changes what the workload does in the run.
  bool traceable = false;
  /// Host steal per round [%], and the rounds the per-run medians count.
  std::vector<double> round_steal_pct;
  std::vector<bool> counted;
  /// Median qps of the counted trace-off (or trace-on) closed-loop slices.
  double SaturationQps(bool traced) const {
    std::vector<double> qps;
    for (const SaturationSlice& slice : saturation_qps) {
      if (slice.traced == traced && counted[slice.round]) qps.push_back(slice.qps);
    }
    return Median(qps);
  }
  std::vector<Phase> rungs;  ///< staircase probes
  std::vector<double> rung_steal_pct;
  double max_rate = 0.0;
  /// Process CPU and wall time spent in the level slices.
  double level_cpu_s = 0.0, level_wall_s = 0.0;
  /// Serve counters: admitted and batches over the level slices; the rest
  /// over the whole timed part.
  uint64_t admitted = 0, batches = 0;
  serve::ServeStats serve_before, serve_after;
  uint64_t cache_hits = 0, cache_lookups = 0;
  int64_t threads = 0, fds = 0;
  double seconds = 0.0;
  double steal_pct = 0.0;
  /// Process peak RSS [MiB] once --seconds had passed: the outcomes kept
  /// for the gate grow with the rounds, so rounds past --seconds would
  /// otherwise raise it.
  double peak_rss_mb = 0.0;

  /// The level slices, across levels and rounds.
  std::vector<const Phase*> LevelSlices() const {
    std::vector<const Phase*> slices;
    for (const LevelSeries& level : levels) {
      for (const Phase& slice : level.slices) slices.push_back(&slice);
    }
    return slices;
  }
};

/// One slice of `level`, added to its series.
void RunLevelSlice(Workload& workload, size_t level, std::mt19937_64& rng,
                   const Picker& pick, Timed* timed) {
  const serve::ServeStats before = workload.ServeTotals();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t wall0 = NowNs();
  timed->levels[level].Add(workload.RunLevel(level, rng, pick));
  timed->level_cpu_s += ProcessCpuSeconds() - cpu0;
  timed->level_wall_s += (NowNs() - wall0) * 1e-9;
  const serve::ServeStats after = workload.ServeTotals();
  timed->admitted += after.admitted - before.admitted;
  timed->batches += after.batches - before.batches;
}

/// Rounds in which the host stole at most kCalmStealPct of CPU time.
size_t CalmRounds(const Timed& timed) {
  return std::count_if(timed.round_steal_pct.begin(), timed.round_steal_pct.end(),
                       [](double steal) { return steal <= kCalmStealPct; });
}

/// Every level has ten samples beyond its p99.
bool LevelsSupportP99(const Timed& timed) {
  for (const LevelSeries& level : timed.levels) {
    if (!level.latency_ms.Supports(0.99)) return false;
  }
  return true;
}

/// Warm-up, then rounds for `args.seconds` (at least kMinRounds; on until
/// kMinCalmRounds were calm, up to kCalmWaitFactor times `args.seconds`;
/// and on until every level supports its p99, up to kMaxTimedFactor times
/// `args.seconds`); each round runs a slice of every level, a closed-loop
/// slice and (trace off) one staircase probe.
Timed RunTimed(Workload& workload, const Args& args, std::mt19937_64& rng,
               const Picker& pick) {
  const std::vector<double> ladder = workload.Ladder();
  Timed timed;
  const int64_t start = NowNs();
  const CpuTicks ticks0 = HostCpuTicks();

  // Warm-up: every vCPU busy, thread-local scratch, connections, first
  // batches.
  RunSaturation(workload, 1.0, 20000, rng, pick);
  RunPhase(workload, ladder[ladder.size() / 4], kSliceSamples, rng, pick);
  std::optional<Staircase> staircase;

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter* hits = metrics.GetCounter("ncl.concept_cache.hits");
  obs::Counter* misses = metrics.GetCounter("ncl.concept_cache.misses");
  const uint64_t hits0 = hits->value(), misses0 = misses->value();

  timed.serve_before = workload.ServeTotals();
  const char* names[Workload::kLevels] = {"low", "mid", "high"};
  timed.levels.resize(Workload::kLevels);
  for (size_t i = 0; i < Workload::kLevels; ++i) timed.levels[i].name = names[i];
  timed.traceable = workload.SetTraced(args.trace);
  // Many short rounds: each level then samples the host's state at many
  // points of the run, and the per-run figures hold still across runs.
  const int64_t rounds_start = NowNs();
  auto more_rounds = [&](size_t round) {
    const double elapsed = (NowNs() - rounds_start) * 1e-9;
    if (round < kMinRounds || elapsed < args.seconds) return true;
    if (CalmRounds(timed) < kMinCalmRounds && elapsed < kCalmWaitFactor * args.seconds) {
      return true;
    }
    return elapsed < kMaxTimedFactor * args.seconds && !LevelsSupportP99(timed);
  };
  for (size_t round = 0; more_rounds(round); ++round) {
    const CpuTicks round_ticks = HostCpuTicks();
    workload.SetTraced(args.trace);
    for (size_t i = 0; i < Workload::kLevels; ++i) {
      std::thread probe;
      if (round == 0 && i == 1) {  // outside-in resource counts, steady state
        probe = std::thread([&timed] {
          std::this_thread::sleep_for(std::chrono::duration<double>(kSliceSeconds / 2));
          timed.threads = ThreadCount();
          timed.fds = FdCount();
        });
      }
      RunLevelSlice(workload, i, rng, pick, &timed);
      if (probe.joinable()) probe.join();
    }
    // Closed loop; where tracing adds in-run work, the traced run
    // alternates it off and on from round to round.
    const bool on = args.trace && timed.traceable && round % 2 == 1;
    workload.SetTraced(on);
    timed.saturations.push_back(
        RunSaturation(workload, kSaturationSliceSeconds, 20000, rng, pick));
    timed.saturation_qps.push_back({timed.saturations.back().qps(), round, on});
    workload.SetTraced(false);
    if (!args.trace) {
      if (!staircase) {
        staircase.emplace(ladder, kStaircaseStart * timed.saturation_qps.back().qps);
      }
      staircase->Probe(workload, kRungSeconds, rng, pick);
    }
    timed.round_steal_pct.push_back(StealPct(round_ticks, HostCpuTicks()));
    if (timed.peak_rss_mb == 0.0 && (NowNs() - rounds_start) * 1e-9 >= args.seconds) {
      timed.peak_rss_mb = PeakRssMb();
    }
  }
  // Count the calm rounds, or the calmest half.
  const size_t rounds = timed.round_steal_pct.size();
  std::vector<size_t> order(rounds);
  for (size_t r = 0; r < rounds; ++r) order[r] = r;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return timed.round_steal_pct[a] < timed.round_steal_pct[b];
  });
  const size_t calm = CalmRounds(timed);
  timed.counted.assign(rounds, false);
  for (size_t i = 0; i < rounds; ++i) {
    timed.counted[order[i]] = calm >= kMinCalmRounds ? i < calm : i < (rounds + 1) / 2;
  }
  if (staircase) {
    timed.rungs = staircase->rungs();
    timed.rung_steal_pct = staircase->steal_pct();
    timed.max_rate = staircase->MaxRate();
  }
  timed.serve_after = workload.ServeTotals();
  timed.cache_hits = hits->value() - hits0;
  timed.cache_lookups = timed.cache_hits + misses->value() - misses0;
  timed.seconds = (NowNs() - start) * 1e-9;
  timed.steal_pct = StealPct(ticks0, HostCpuTicks());
  return timed;
}

// --- Reports -----------------------------------------------------------------

/// The end-to-end metrics of a trace-off run.
void ReportEndToEnd(const Timed& timed, const Dist& setup_s, const GateResult& gate,
                    uint64_t attempted, uint64_t failed, Report* report) {
  for (const LevelSeries& level : timed.levels) {
    if (!level.latency_ms.Supports(0.99)) continue;
    report->Note("p99_ms." + level.name + " = " + FormatNumber(level.latency_ms.Pct(0.99)) +
                 " ms  (n=" + std::to_string(level.latency_ms.size()) +
                 ")  [pooled; not gated: host stalls decide it]");
  }
  report->Add("setup_s", setup_s.Pct(0.5), "s", setup_s.size(),
              "median of set-ups: synthesis, pretrain, train, index, encodings, start");
  report->Add("peak_rss_mb", timed.peak_rss_mb, "MiB", 0,
              "process peak by the end of --seconds, load generator included");
  report->Add("top1_acc",
              gate.top1_n ? static_cast<double>(gate.top1_hits) / gate.top1_n : 0.0,
              "fraction", gate.top1_n, "offline top-1 on the first distinct queries served");
  report->Add("ok_frac", attempted ? 1.0 - static_cast<double>(failed) / attempted : 0.0,
              "fraction", attempted, "1 - fail_frac");
  uint64_t saturated = 0;
  for (const Saturation& sat : timed.saturations) saturated += sat.completed;
  const size_t counted = std::count(timed.counted.begin(), timed.counted.end(), true);
  report->Add("throughput_qps", timed.SaturationQps(false), "1/s", saturated,
              "closed loop, work always waiting; median over " +
                  std::to_string(counted) + " counted rounds");
  for (const LevelSeries& level : timed.levels) {
    const Dist pooled = level.Counted(timed.counted);
    report->Add("p50_ms." + level.name, pooled.Pct(0.5), "ms", pooled.size(),
                "from due time (send time in a closed loop), pooled over " +
                    std::to_string(counted) + " counted rounds");
  }
  size_t valid = 0;
  for (const Phase& rung : timed.rungs) valid += rung.GeneratorKeptUp(kLatencyLimitMs);
  report->Add("max_rate_qps", timed.max_rate, "1/s", valid,
              "staircase over valid rungs, calm ones when enough passed; p99 <= " +
                  FormatNumber(kLatencyLimitMs) + " ms, no failures, no growing backlog");
}

/// The per-layer metrics of a traced run.
void ReportLayers(const Workload& workload, const Timed& timed, const QueryLists& queries,
                  const std::vector<Served>& served, double worst_lag_ms,
                  Report* report) {
  // Per-request stage stamps from the traced level slices.
  const std::vector<const Phase*> slices = timed.LevelSlices();
  Dist admit, queue, pool, rank;
  double unexplained_us = 0.0, observed_us = 0.0;
  for (const Phase* slice : slices) {
    for (const Outcome& o : slice->outcomes) {
      if (!o.ok) continue;
      const serve::RequestTimings& t = o.timings;
      if (o.admit_us > 0) admit.Add(o.admit_us);
      queue.Add(t.queue_wait_us);
      pool.Add(t.batch_form_us);
      rank.Add(t.rank_us);
      // Ledger: the caller-observed time splits into what the program
      // stamped (total_us) and the rest outside it (net overhead), and
      // total_us into named stages; the share no stage covers is
      // unexplained.
      observed_us += (o.done_ns - o.send_ns) * 1e-3 / o.call_size;
      unexplained_us +=
          t.total_us - (t.queue_wait_us + t.batch_form_us + t.candgen_us + t.ed_us + t.rank_us);
    }
  }
  workload.ReportOwnLayers(slices, report);
  report->Add("net.threads", static_cast<double>(timed.threads), "count", 0,
              "/proc/self/status, mid level");
  report->Add("net.fds", static_cast<double>(timed.fds), "count", 0,
              "/proc/self/fd, mid level");

  const serve::ServeStats& a = timed.serve_before;
  const serve::ServeStats& b = timed.serve_after;
  report->Add("serve.admit_us.p99", admit.Pct(0.99), "us", admit.size(),
              "span: SubmitLink (in-process service only)");
  report->Add("serve.queue_wait_us.p50", queue.Pct(0.5), "us", queue.size());
  report->Add("serve.queue_wait_us.p99", queue.Pct(0.99), "us", queue.size());
  report->Add("serve.pool_wait_us.p50", pool.Pct(0.5), "us", pool.size(),
              "RequestTimings.batch_form_us");
  report->Add("serve.pool_wait_us.p99", pool.Pct(0.99), "us", pool.size());
  const double served_batch =
      timed.batches ? static_cast<double>(timed.admitted) / timed.batches : 0.0;
  report->Add("serve.batch_size.mean", served_batch, "count", timed.batches,
              "admitted / batches at the levels");
  report->Add("serve.cores_busy",
              timed.level_wall_s > 0 ? timed.level_cpu_s / timed.level_wall_s : 0.0,
              "cores", 0, "process CPU seconds / wall at the levels");
  report->Add("serve.shed", static_cast<double>(b.shed - a.shed), "count");
  report->Add("serve.rejected", static_cast<double>(b.rejected - a.rejected), "count");
  report->Add("serve.deadline_exceeded",
              static_cast<double>(b.deadline_exceeded - a.deadline_exceeded), "count");
  report->Add("linking.rank_us.p50", rank.Pct(0.5), "us", rank.size(),
              "program stamps: rank_us");
  for (const LevelSeries& level : timed.levels) {
    const bool supported = level.latency_ms.Supports(0.99);
    report->Add("p99_ms." + level.name, supported ? level.latency_ms.Pct(0.99) : 0.0,
                "ms", level.latency_ms.size(),
                supported ? "from due time (send time in a closed loop), pooled, traced run"
                          : "too few samples for p99");
  }

  // Spans around each layer's public calls, replayed after the run on a
  // sample of its queries.
  LayerProbe probe = workload.Probe(std::max(1.0, served_batch));
  for (const Served& s : served) {
    if (probe.queries.size() == 512) break;
    if (s.request->tenant == 0) probe.queries.push_back(&queries[0][s.request->query]);
  }
  MeasureLayers(probe, report);

  report->Add("model.concept_cache_hit_frac",
              timed.cache_lookups
                  ? static_cast<double>(timed.cache_hits) / timed.cache_lookups
                  : 0.0,
              "fraction", timed.cache_lookups, "ncl.concept_cache hits / lookups");
  report->Add("gen.lag_ms.p99", worst_lag_ms, "ms", 0, "worst level, every round");
  report->Add("ledger.unexplained_frac", observed_us > 0 ? unexplained_us / observed_us : 0.0,
              "fraction", 0, "share of observed latency no named stage covers");
  const double off = timed.SaturationQps(false), on = timed.SaturationQps(true);
  report->Add("trace.overhead_pct",
              timed.traceable && off > 0 ? (off - on) / off * 100.0 : 0.0, "%",
              timed.saturation_qps.size(),
              timed.traceable ? "closed-loop qps, trace off vs on, interleaved"
                              : "0 by construction: no in-run trace spans on this "
                                "workload (its stage stamps arrive either way)");
}

int RunWorkload(const Args& args) {
  Report report;
  Dist setup_s;
  std::unique_ptr<Workload> workload;
  const size_t reps = args.trace ? 1 : kSetupReps;
  for (size_t r = 0; r < reps; ++r) {
    workload.reset();
    const int64_t start = NowNs();
    workload = MakeWorkload(args.workload, args.workdir);
    setup_s.Add((NowNs() - start) * 1e-9);
  }
  if (!workload) {
    std::cerr << "nclbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const int64_t inputs_start = NowNs();
  const QueryLists queries = workload->MakeQueries(args.seed);
  const double inputs_s = (NowNs() - inputs_start) * 1e-9;
  for (const auto& list : queries) {
    if (list.empty()) {
      std::cerr << "nclbench: no queries generated\n";
      return 1;
    }
  }
  const Status started = workload->Start(&queries);
  if (!started.ok()) {
    std::cerr << "nclbench: " << started.ToString() << "\n";
    return 1;
  }
  report.Note(workload->Shape());
  std::mt19937_64 rng(args.seed);
  const Picker pick = workload->MakePicker(queries);
  const Timed timed = RunTimed(*workload, args, rng, pick);

  // Every timed request goes through the correctness gate. Ladder rungs are
  // checked but not counted as attempted: the top rungs are meant to
  // overload.
  std::vector<Served> served;
  auto collect = [&served](const std::vector<Request>& schedule,
                           const std::vector<Outcome>& outcomes) {
    for (size_t i = 0; i < schedule.size(); ++i) served.push_back({&schedule[i], &outcomes[i]});
  };
  uint64_t attempted = 0, failed = 0;
  for (const LevelSeries& level : timed.levels) {
    for (const Phase& slice : level.slices) collect(slice.schedule, slice.outcomes);
    attempted += level.latency_ms.size();
    failed += level.failed;
  }
  for (const Saturation& sat : timed.saturations) {
    collect(sat.schedule, sat.outcomes);
    attempted += sat.outcomes.size();
    failed += sat.outcomes.size() - sat.completed;
  }
  for (const Phase& rung : timed.rungs) collect(rung.schedule, rung.outcomes);
  const int64_t gate_start = NowNs();
  const GateResult gate = Gate(*workload, queries, served);
  bool correct = gate.ok;
  report.Note(gate.message);
  report.Note("time: set-up " + FormatNumber(setup_s.Mean() * setup_s.size()) +
              " s (" + setup_s.Join() + "), inputs " + FormatNumber(inputs_s) + " s, timed " +
              FormatNumber(timed.seconds) + " s, gate " +
              FormatNumber((NowNs() - gate_start) * 1e-9) + " s; host steal " +
              FormatNumber(timed.steal_pct) + "% of CPU time while timed");
  std::string steal_line = "rounds counted toward the medians (host steal % per round):";
  for (size_t r = 0; r < timed.round_steal_pct.size(); ++r) {
    steal_line += (timed.counted[r] ? " " : " [") + FormatNumber(timed.round_steal_pct[r]) +
                  (timed.counted[r] ? "" : "]");
  }
  report.Note(steal_line + "  ([x] = not counted)");

  // Generator honesty, over every round: the median lateness of each slice
  // must stay small against the latency it is part of, the slice's own p50
  // and never less than p50_ms.low, the smallest gated latency.
  const double p50_low = timed.levels[0].Counted(timed.counted).Pct(0.5);
  double worst_lag = 0.0;
  for (const LevelSeries& level : timed.levels) {
    const double lag_p99 = level.lag_ms.Pct(0.99);
    const double latency_p99 = level.latency_ms.Pct(0.99);
    const double lag_share = level.WorstSliceLagShare(p50_low);
    worst_lag = std::max(worst_lag, lag_p99);
    std::string slice_p50s;
    for (const Phase& slice : level.slices) {
      slice_p50s += " " + FormatNumber(std::round(slice.latency_ms.Pct(0.5) * 1e3) / 1e3);
    }
    std::ostringstream line;
    line << "level " << level.name << ": ";
    if (level.slices.front().rate > 0) {
      line << "offered " << level.slices.front().rate << "/s";
    } else {
      line << "closed loop";
    }
    line << " in " << level.slices.size() << " slices, n=" << level.latency_ms.size()
         << ", failed=" << level.failed << ", latency_ms p50 (counted rounds)="
         << FormatNumber(level.Counted(timed.counted).Pct(0.5)) << ", all rounds p50/p90/p99="
         << FormatNumber(level.latency_ms.Pct(0.5)) << "/"
         << FormatNumber(level.latency_ms.Pct(0.9)) << "/" << FormatNumber(latency_p99)
         << ", gen.lag_ms pooled p99=" << FormatNumber(lag_p99)
         << ", worst slice lag p50 / latency p50=" << FormatNumber(lag_share)
         << ", max backlog_end=" << level.backlog_max << "; slice p50s [ms]:" << slice_p50s;
    report.Note(line.str());
    if (lag_share > kMaxLagShare) {
      report.Note("INVALID: the generator fell behind at level " + level.name);
      correct = false;
    }
    if (!level.latency_ms.Supports(0.99)) {
      report.Note("INVALID: too few samples for p99 at level " + level.name);
      correct = false;
    }
  }
  for (size_t i = 0; i < timed.rungs.size(); ++i) {
    const Phase& rung = timed.rungs[i];
    std::ostringstream line;
    const bool valid = rung.GeneratorKeptUp(kLatencyLimitMs);
    line << "ladder " << rung.rate << "/s: n=" << rung.schedule.size()
         << ", p99_ms=" << FormatNumber(rung.latency_ms.Pct(0.99))
         << ", gen.lag_ms p99=" << FormatNumber(rung.lag_ms.Pct(0.99))
         << ", failed=" << rung.failed << ", backlog_end=" << rung.backlog_end
         << ", host steal " << FormatNumber(timed.rung_steal_pct[i]) << "%"
         << (!valid                          ? ", invalid: the generator fell behind"
             : rung.Meets(kLatencyLimitMs) ? ", meets the limit"
                                           : ", misses the limit");
    report.Note(line.str());
  }
  if (!args.trace && timed.max_rate <= 0) {
    report.Note("INVALID: no valid ladder rung met the limit");
    correct = false;
  }

  uint64_t distinct = 0;
  std::set<std::pair<uint8_t, uint32_t>> seen;
  for (const Served& s : served) {
    if (s.outcome->ok) distinct += seen.emplace(s.request->tenant, s.request->query).second;
  }
  report.Note("queries: " + std::to_string(distinct) + " distinct of " +
              std::to_string(served.size()) + " served, repeat share " +
              FormatNumber(1.0 - static_cast<double>(distinct) /
                                     static_cast<double>(std::max<size_t>(1, served.size()))));

  if (args.trace) {
    ReportLayers(*workload, timed, queries, served, worst_lag, &report);
  } else {
    ReportEndToEnd(timed, setup_s, gate, attempted, failed, &report);
  }
  report.Print(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: nclbench --workload <serve_open|fleet_mixed|bulk_link> "
                 "--seed N --seconds S --trace <0|1> [--workdir DIR]\n";
    return 2;
  }
  return RunWorkload(args);
}
