// The open-loop harness shared by every workload.
//
// A Workload is the system under test together with the load generator that
// fits it. The harness builds seeded Poisson schedules, hands them to the
// workload, and turns the outcomes into end-to-end numbers. Latency is timed
// from each request's due time, so a stall also charges the requests queued
// behind it; a failed or refused request counts as missing the limit.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "layers.h"
#include "linking/ncl_linker.h"
#include "serve/linking_service.h"
#include "serve/slo.h"
#include "setup.h"
#include "stats.h"
#include "util/status.h"

namespace nclbench {

/// p99 limit for max_rate_qps. The vCPUs of a shared 4-core VM stall for
/// 5-12 ms several times a second (measured with an idle spinning probe),
/// which puts p99 anywhere from 2.5 to 36 ms at 20% load; a limit above that
/// floor makes the ladder find the knee where the queue starts to grow.
inline constexpr double kLatencyLimitMs = 50.0;
/// Generator honesty. A run is invalid when the median send lateness of any
/// level slice exceeds this share of the slice's latency p50, taken as at
/// least p50_ms.low (the smallest gated latency); a ladder rung is invalid
/// when its lateness p99 exceeds this share of kLatencyLimitMs, the p99 it
/// decides on. Past these the generator, not the program, would decide the
/// figure.
inline constexpr double kMaxLagShare = 0.25;
/// Largest share of CPU time [%] the hypervisor may steal in a round or a
/// ladder probe for it to count as calm. Steal is time the vCPUs wanted to
/// run and another guest ran instead: it slows every layer at once and says
/// nothing about the program.
inline constexpr double kCalmStealPct = 2.0;
/// Fewest requests in a ladder rung: its p99 then has Dist::kTail samples
/// beyond it.
inline constexpr size_t kRungSamples = 100 * Dist::kTail;

struct Request {
  int64_t due_ns = 0;   ///< steady-clock due time (0 in closed-loop phases)
  uint32_t query = 0;   ///< index into the tenant's query list
  uint8_t tenant = 0;
  bool keep = false;    ///< keep the full ranking for the bit-identity check
};

struct Outcome {
  int64_t send_ns = 0;  ///< handed to the system
  int64_t done_ns = 0;  ///< answer observed by the caller
  int64_t lag_ns = 0;   ///< how late the send ran while the sender was free
  bool ok = false;
  /// Requests answered by the same call (send_ns..done_ns); each owns this
  /// share of the observed time.
  uint32_t call_size = 1;
  ncl::ontology::ConceptId top1 = ncl::ontology::kInvalidConcept;  ///< none: no ranking
  uint64_t version = 0;  ///< snapshot version that scored it (served paths)
  double admit_us = 0.0;  ///< traced: time inside SubmitLink
  ncl::serve::RequestTimings timings;  ///< the program's own stage stamps
  std::vector<ncl::linking::ScoredCandidate> ranking;  ///< when Request::keep
};

/// Tokens of every tenant's queries, indexed [tenant][query].
using QueryLists = std::vector<std::vector<Query>>;

/// Draws the request stream: which query (and tenant) comes next.
using Picker = std::function<Request(std::mt19937_64&)>;

/// Results of one fixed-rate, closed-loop or ladder phase.
struct Phase {
  double rate = 0.0;  ///< offered [1/s]; 0 in a closed loop
  std::vector<Request> schedule;
  std::vector<Outcome> outcomes;
  Dist latency_ms;  ///< every request; failures count as +inf
  Dist lag_ms;
  uint64_t failed = 0;
  uint64_t backlog_end = 0;  ///< due by the last due time, not yet answered
  /// p99 within `limit_ms`, no failures and no growing backlog.
  bool Meets(double limit_ms) const;
  /// The generator's lateness p99 stayed within kMaxLagShare of the limit.
  bool GeneratorKeptUp(double limit_ms) const;
};

/// Summarise a finished phase. Latency runs from each request's due time,
/// or from its send time in a closed loop (due time 0).
Phase SummarisePhase(double rate, std::vector<Request> schedule,
                     std::vector<Outcome> outcomes);

/// The system under test with its load generator. One subclass per
/// workload; the runner sees only this interface.
class Workload {
 public:
  /// Levels of a run: low, mid and high.
  static constexpr size_t kLevels = 3;

  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// The workload's shape: tenants, corpus sizes, d, V, k, levels, nproc.
  /// Called after Start.
  virtual std::string Shape() const = 0;
  /// Rates of the staircase for max_rate_qps [1/s], ascending.
  virtual std::vector<double> Ladder() const = 0;
  /// Generate the run's labeled queries from `seed`.
  virtual QueryLists MakeQueries(uint64_t seed) = 0;
  /// How the run draws requests from `queries`.
  virtual Picker MakePicker(const QueryLists& queries) const = 0;
  /// Point the load generator at `queries` (which must outlive the
  /// workload) and start the workload's background activity.
  virtual ncl::Status Start(const QueryLists* queries) = 0;

  /// Execute `schedule` open-loop (sends at due times); returns once every
  /// request has an outcome. `out` is resized to the schedule.
  virtual void Run(const std::vector<Request>& schedule,
                   std::vector<Outcome>* out) = 0;
  /// Closed loop with work always waiting: issue requests from `schedule`
  /// in order (due times ignored) for `seconds`. Returns how many were
  /// issued; their outcomes fill the front of `out`.
  virtual size_t Saturate(const std::vector<Request>& schedule, double seconds,
                          std::vector<Outcome>* out) = 0;
  /// One slice of level `level` (< kLevels), drawing requests with `pick`.
  virtual Phase RunLevel(size_t level, std::mt19937_64& rng, const Picker& pick) = 0;
  /// Turn the in-run trace spans on or off. Returns false when the workload
  /// has none, so a traced run does the same work as an untraced one.
  virtual bool SetTraced(bool) { return false; }

  /// The linker a served answer must match bit for bit.
  virtual const ncl::linking::NclLinker& Reference(uint8_t tenant,
                                                   uint64_t version) const = 0;
  /// Counters of the workload's linking services, summed (zero without a
  /// serve layer).
  virtual ncl::serve::ServeStats ServeTotals() const { return {}; }
  /// What the post-run span replay of the linking, model and kernel layers
  /// runs on; `served_batch` is the mean requests per dispatched batch.
  virtual LayerProbe Probe(double served_batch) const = 0;
  /// Adds the net.* metrics and the publish metrics (serve.publish_us.p99,
  /// serve.post_publish_p99_ms) from the traced slices; zeros for the
  /// layers the workload bypasses.
  virtual void ReportOwnLayers(const std::vector<const Phase*>& traced,
                               Report* report) const = 0;

 protected:
  /// Adds the net.* and publish metrics as zeros: the workload has no net
  /// layer and publishes nothing while timed.
  static void ReportNoNetNoPublish(Report* report);
};

/// Fewest requests in one slice of a fixed rate.
inline constexpr size_t kSliceSamples = 100;
/// Shortest slice of a fixed rate [s].
inline constexpr double kSliceSeconds = 0.15;

/// Run one open-loop phase of `count` requests at `rate`.
Phase RunPhase(Workload& workload, double rate, size_t count, std::mt19937_64& rng,
               const Picker& pick);

/// One slice of a fixed offered rate: kSliceSeconds of arrivals, at least
/// kSliceSamples of them.
Phase RunRateSlice(Workload& workload, double rate, std::mt19937_64& rng,
                   const Picker& pick);

/// Saturation result.
struct Saturation {
  std::vector<Request> schedule;
  std::vector<Outcome> outcomes;  ///< issued ones only
  double seconds = 0.0;
  uint64_t completed = 0;
  double qps() const { return seconds > 0 ? static_cast<double>(completed) / seconds : 0.0; }
};

Saturation RunSaturation(Workload& workload, double seconds, size_t max_requests,
                         std::mt19937_64& rng, const Picker& pick);

/// max_rate_qps by a staircase over a fixed rate ladder. Each probe runs
/// one rung for at least `rung_s` and kRungSamples requests; a rung that
/// meets kLatencyLimitMs moves the next probe up, a miss moves it down, and
/// a rung whose generator fell behind is invalid: it neither passes nor
/// misses, and the next probe repeats it. Steps start at kStartStep rungs,
/// halve at each reversal down to one rung and double again after more than
/// kRegrowAfter moves the same way, so a start set in a slow moment of the
/// host, or a drift during a burst of steal, is left in a few probes. The
/// staircase settles around the highest rung the system sustains; probes
/// are spread over the run, and the estimate is the mean of the passing
/// probes once steps first came down to one rung, taken over the calm ones
/// (steal at most kCalmStealPct) when there are kMinCalmPasses of them.
class Staircase {
 public:
  /// Starts at the highest rung at or below `start_rate`.
  Staircase(std::vector<double> rates, double start_rate);
  void Probe(Workload& workload, double rung_s, std::mt19937_64& rng,
             const Picker& pick);
  /// 0 when no valid probe passed.
  double MaxRate() const;
  const std::vector<Phase>& rungs() const { return rungs_; }
  /// Host steal during each probe [%], in probe order.
  const std::vector<double>& steal_pct() const { return steal_pct_; }

 private:
  static constexpr size_t kStartStep = 4;
  static constexpr size_t kRegrowAfter = 3;
  static constexpr size_t kMinCalmPasses = 3;

  std::vector<double> rates_;
  size_t rung_ = 0;
  size_t step_ = kStartStep;
  int last_direction_ = 0;
  size_t same_direction_ = 0;  ///< valid probes in a row that moved the same way
  bool settled_ = false;
  /// Rates of the passing probes: before steps first came down to one rung,
  /// after, and after and calm.
  std::vector<double> early_, passing_, calm_passing_;
  std::vector<Phase> rungs_;  ///< in probe order
  std::vector<double> steal_pct_;
};

}  // namespace nclbench
