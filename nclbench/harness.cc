#include "harness.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace nclbench {

namespace {

/// Open-loop phases start this far ahead of "now", so the first due times
/// are not already late when the workload starts.
constexpr int64_t kLeadNs = 20'000'000;

/// `count` seeded Poisson arrivals at `rate` starting at `start_ns`.
std::vector<Request> PoissonSchedule(double rate, size_t count, int64_t start_ns,
                                     std::mt19937_64& rng, const Picker& pick) {
  std::exponential_distribution<double> gap(rate);
  std::vector<Request> schedule;
  schedule.reserve(count);
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    t += gap(rng);
    Request request = pick(rng);
    request.due_ns = start_ns + static_cast<int64_t>(t * 1e9);
    schedule.push_back(request);
  }
  return schedule;
}

}  // namespace

Phase SummarisePhase(double rate, std::vector<Request> schedule,
                     std::vector<Outcome> outcomes) {
  const double inf = std::numeric_limits<double>::infinity();
  Phase phase;
  phase.rate = rate;
  phase.schedule = std::move(schedule);
  phase.outcomes = std::move(outcomes);
  const size_t n = phase.schedule.size();
  const int64_t last_due = n ? phase.schedule.back().due_ns : 0;
  for (size_t i = 0; i < n; ++i) {
    const Request& request = phase.schedule[i];
    const Outcome& outcome = phase.outcomes[i];
    const int64_t from = request.due_ns ? request.due_ns : outcome.send_ns;
    if (!outcome.ok) ++phase.failed;
    phase.latency_ms.Add(outcome.ok ? (outcome.done_ns - from) * 1e-6 : inf);
    phase.lag_ms.Add(outcome.lag_ns * 1e-6);
    if (request.due_ns != 0 && (!outcome.ok || outcome.done_ns > last_due)) {
      ++phase.backlog_end;
    }
  }
  return phase;
}

bool Phase::Meets(double limit_ms) const {
  // No growing backlog: what is left at the end must be no more than the
  // arrivals of one latency limit.
  const double backlog_allowance = std::max(4.0, rate * limit_ms * 1e-3);
  return failed == 0 && latency_ms.Pct(0.99) <= limit_ms &&
         static_cast<double>(backlog_end) <= backlog_allowance;
}

bool Phase::GeneratorKeptUp(double limit_ms) const {
  return lag_ms.Pct(0.99) <= kMaxLagShare * limit_ms;
}

void Workload::ReportNoNetNoPublish(Report* report) {
  for (const char* name : {"net.rtt_us.p50", "net.rtt_us.p99", "net.overhead_us.p50",
                           "net.overhead_us.p99"}) {
    report->Add(name, 0.0, "us", 0, "no net layer");
  }
  report->Add("net.router.backend_share_max", 0.0, "fraction", 0, "no net layer");
  for (const char* name :
       {"net.router.retried", "net.router.failed", "net.server.decode_errors"}) {
    report->Add(name, 0.0, "count", 0, "no net layer");
  }
  report->Add("serve.publish_us.p99", 0.0, "us", 0, "no publish while timed");
  report->Add("serve.post_publish_p99_ms", 0.0, "ms", 0, "no publish while timed");
}

Phase RunPhase(Workload& workload, double rate, size_t count, std::mt19937_64& rng,
               const Picker& pick) {
  const int64_t start_ns = NowNs() + kLeadNs;
  std::vector<Request> schedule = PoissonSchedule(rate, count, start_ns, rng, pick);
  std::vector<Outcome> outcomes;
  workload.Run(schedule, &outcomes);
  return SummarisePhase(rate, std::move(schedule), std::move(outcomes));
}

Phase RunRateSlice(Workload& workload, double rate, std::mt19937_64& rng,
                   const Picker& pick) {
  const size_t count =
      std::max(kSliceSamples, static_cast<size_t>(std::lround(rate * kSliceSeconds)));
  return RunPhase(workload, rate, count, rng, pick);
}

Saturation RunSaturation(Workload& workload, double seconds, size_t max_requests,
                         std::mt19937_64& rng, const Picker& pick) {
  Saturation result;
  result.schedule.reserve(max_requests);
  for (size_t i = 0; i < max_requests; ++i) result.schedule.push_back(pick(rng));
  const int64_t start = NowNs();
  const size_t issued = workload.Saturate(result.schedule, seconds, &result.outcomes);
  result.seconds = (NowNs() - start) * 1e-9;
  result.schedule.resize(issued);
  result.outcomes.resize(issued);
  for (const Outcome& outcome : result.outcomes) {
    if (outcome.ok) ++result.completed;
  }
  return result;
}

Staircase::Staircase(std::vector<double> rates, double start_rate)
    : rates_(std::move(rates)) {
  while (rung_ + 1 < rates_.size() && rates_[rung_ + 1] <= start_rate) ++rung_;
}

void Staircase::Probe(Workload& workload, double rung_s, std::mt19937_64& rng,
                      const Picker& pick) {
  const double rate = rates_[rung_];
  const size_t count =
      std::max(kRungSamples, static_cast<size_t>(std::lround(rate * rung_s)));
  const CpuTicks ticks = HostCpuTicks();
  rungs_.push_back(RunPhase(workload, rate, count, rng, pick));
  steal_pct_.push_back(StealPct(ticks, HostCpuTicks()));
  if (!rungs_.back().GeneratorKeptUp(kLatencyLimitMs)) return;
  const bool meets = rungs_.back().Meets(kLatencyLimitMs);
  const int direction = meets ? 1 : -1;
  if (last_direction_ != 0 && direction != last_direction_) {
    step_ = std::max<size_t>(1, step_ / 2);
    settled_ = settled_ || step_ == 1;
    same_direction_ = 1;
  } else if (++same_direction_ > kRegrowAfter) {
    step_ = std::min(kStartStep, step_ * 2);
    same_direction_ = 1;
  }
  last_direction_ = direction;
  if (meets) {
    if (!settled_) {
      early_.push_back(rate);
    } else {
      passing_.push_back(rate);
      if (steal_pct_.back() <= kCalmStealPct) calm_passing_.push_back(rate);
    }
    rung_ = std::min(rates_.size() - 1, rung_ + step_);
  } else {
    rung_ = rung_ > step_ ? rung_ - step_ : 0;
  }
}

double Staircase::MaxRate() const {
  auto mean = [](const std::vector<double>& rates) {
    double sum = 0.0;
    for (double rate : rates) sum += rate;
    return sum / static_cast<double>(rates.size());
  };
  if (calm_passing_.size() >= kMinCalmPasses) return mean(calm_passing_);
  if (!passing_.empty()) return mean(passing_);
  if (!early_.empty()) return mean(early_);
  return 0.0;
}

}  // namespace nclbench
