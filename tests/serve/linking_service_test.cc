// LinkingService unit tests: admission policies bound the queue, deadlines
// fail instead of waiting forever, micro-batches fan out across shards, and
// the Drain/Shutdown lifecycle resolves every future exactly once. A fake
// snapshot with controllable latency stands in for the real linker so
// saturation is cheap to produce.

#include "serve/linking_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/model_snapshot.h"

namespace ncl::serve {
namespace {

using namespace std::chrono_literals;

/// Snapshot that sleeps for a configurable time and returns one candidate
/// whose id doubles as a payload check.
class FakeSnapshot : public ModelSnapshot {
 public:
  explicit FakeSnapshot(std::chrono::microseconds latency = 0us)
      : latency_(latency) {}

  std::vector<linking::ScoredCandidate> Link(
      const std::vector<std::string>& query) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (latency_.count() > 0) std::this_thread::sleep_for(latency_);
    return {linking::ScoredCandidate{
        static_cast<ontology::ConceptId>(query.size()), -1.0, 1.0}};
  }

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  std::chrono::microseconds latency_;
  mutable std::atomic<uint64_t> calls_{0};
};

/// Snapshot whose Link blocks until Release(); entered() counts the
/// requests that reached it, i.e. passed their shard's deadline check.
class GatedSnapshot : public ModelSnapshot {
 public:
  std::vector<linking::ScoredCandidate> Link(
      const std::vector<std::string>& query) const override {
    entered_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
    return {linking::ScoredCandidate{
        static_cast<ontology::ConceptId>(query.size()), -1.0, 1.0}};
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  uint64_t entered() const { return entered_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool open_ = false;
  mutable std::atomic<uint64_t> entered_{0};
};

std::vector<std::string> Query(size_t words = 2) {
  return std::vector<std::string>(words, "anemia");
}

TEST(LinkingServiceTest, NoSnapshotFailsPrecondition) {
  TenantRegistry registry;
  LinkingService service(&registry);
  LinkResult result = service.Link(Query());
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(result.snapshot_version, 0u);
}

TEST(LinkingServiceTest, ServesRequestsWithTimingsAndVersion) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>());
  LinkingService service(&registry);

  LinkResult result = service.Link(Query(3));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.candidates.size(), 1u);
  EXPECT_EQ(result.candidates[0].concept_id, 3);
  EXPECT_EQ(result.snapshot_version, 1u);
  EXPECT_GE(result.queue_us, 0.0);
  EXPECT_GE(result.service_us, 0.0);

  ServeStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(LinkingServiceTest, MicroBatchFansOutAcrossShards) {
  TenantRegistry registry;
  auto snapshot = std::make_shared<FakeSnapshot>(2ms);
  registry.Publish(kDefaultTenant, snapshot);
  ServeConfig config;
  config.num_shards = 4;
  config.max_batch = 8;
  LinkingService service(&registry, config);

  constexpr size_t kRequests = 16;
  std::vector<std::future<LinkResult>> futures;
  futures.reserve(kRequests);
  for (size_t i = 0; i < kRequests; ++i) futures.push_back(service.SubmitLink(Query()));
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  EXPECT_EQ(snapshot->calls(), kRequests);
  // The burst cannot have been served one-at-a-time: with 4 shards pulling
  // up to 2 requests each, far fewer pulls than requests are needed.
  EXPECT_LT(service.stats().batches, kRequests);
}

TEST(LinkingServiceTest, RejectPolicyBoundsQueueDepth) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(5ms));
  ServeConfig config;
  config.queue_capacity = 4;
  config.policy = OverloadPolicy::kReject;
  config.max_batch = 1;
  config.num_shards = 1;
  LinkingService service(&registry, config);

  constexpr size_t kBurst = 32;
  std::vector<std::future<LinkResult>> futures;
  for (size_t i = 0; i < kBurst; ++i) futures.push_back(service.SubmitLink(Query()));

  size_t ok = 0, rejected = 0;
  for (auto& f : futures) {
    LinkResult r = f.get();
    if (r.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, kBurst);
  EXPECT_GT(rejected, 0u) << "burst should overflow a capacity-4 queue";

  ServeStats stats = service.stats();
  EXPECT_LE(stats.max_queue_depth, config.queue_capacity);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.completed, ok);
}

TEST(LinkingServiceTest, ShedOldestEvictsStalestRequest) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(5ms));
  ServeConfig config;
  config.queue_capacity = 2;
  config.policy = OverloadPolicy::kShedOldest;
  config.max_batch = 1;
  config.num_shards = 1;
  LinkingService service(&registry, config);

  constexpr size_t kBurst = 24;
  std::vector<std::future<LinkResult>> futures;
  for (size_t i = 0; i < kBurst; ++i) futures.push_back(service.SubmitLink(Query()));

  size_t ok = 0, shed = 0;
  for (auto& f : futures) {
    LinkResult r = f.get();
    if (r.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GT(shed, 0u);
  ServeStats stats = service.stats();
  EXPECT_LE(stats.max_queue_depth, config.queue_capacity);
  EXPECT_EQ(stats.shed, shed);
}

TEST(LinkingServiceTest, QueueWaitPastDeadlineFailsDeadlineExceeded) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(20ms));
  ServeConfig config;
  config.max_batch = 1;
  config.num_shards = 1;
  LinkingService service(&registry, config);

  // First request occupies the only shard for ~20ms; the ones behind it
  // carry a 1ms deadline and must fail instead of waiting unboundedly.
  std::future<LinkResult> head = service.SubmitLink(Query());
  RequestOptions tight;
  tight.deadline = 1ms;
  std::vector<std::future<LinkResult>> tail;
  for (int i = 0; i < 4; ++i) tail.push_back(service.SubmitLink(Query(), tight));

  EXPECT_TRUE(head.get().status.ok());
  size_t exceeded = 0;
  for (auto& f : tail) {
    LinkResult r = f.get();
    if (!r.status.ok()) {
      EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
      ++exceeded;
    }
  }
  EXPECT_GT(exceeded, 0u);
  EXPECT_EQ(service.stats().deadline_exceeded, exceeded);
}

TEST(LinkingServiceTest, DefaultDeadlineAppliesToEveryRequest) {
  TenantRegistry registry;
  auto gate = std::make_shared<GatedSnapshot>();
  registry.Publish(kDefaultTenant, gate);
  ServeConfig config;
  config.max_batch = 1;
  config.num_shards = 1;
  config.default_deadline = 100ms;
  LinkingService service(&registry, config);

  // Once the head is inside Link it has passed its deadline check, and it
  // holds the only shard until the gate opens.
  std::future<LinkResult> head = service.SubmitLink(Query());
  for (int i = 0; i < 5000 && gate->entered() < 1; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(gate->entered(), 1u);
  // Requests queued behind it carry no deadline of their own, so the
  // default applies; they wait past it before the shard is free.
  std::vector<std::future<LinkResult>> queued;
  for (int i = 0; i < 3; ++i) queued.push_back(service.SubmitLink(Query()));
  std::this_thread::sleep_for(150ms);
  gate->Release();

  EXPECT_TRUE(head.get().status.ok());
  for (auto& f : queued) {
    EXPECT_EQ(f.get().status.code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(service.stats().deadline_exceeded, queued.size());
}

TEST(LinkingServiceTest, BlockPolicyCompletesEverythingWithoutLoss) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(1ms));
  ServeConfig config;
  config.queue_capacity = 2;
  config.policy = OverloadPolicy::kBlock;
  config.max_batch = 2;
  config.num_shards = 2;
  LinkingService service(&registry, config);

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 8;
  std::atomic<size_t> ok{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (size_t i = 0; i < kPerClient; ++i) {
        if (service.Link(Query()).status.ok()) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  ServeStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_LE(stats.max_queue_depth, config.queue_capacity);
}

TEST(LinkingServiceTest, DrainServesQueuedThenRefusesNewWork) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(1ms));
  ServeConfig config;
  config.max_batch = 2;
  config.num_shards = 2;
  LinkingService service(&registry, config);

  std::vector<std::future<LinkResult>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(service.SubmitLink(Query()));
  service.Drain();
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  EXPECT_EQ(service.Link(Query()).status.code(), StatusCode::kUnavailable);
}

TEST(LinkingServiceTest, DrainRacingConcurrentSubmitsResolvesEveryFuture) {
  // Drain from one thread while several submitters hammer SubmitLink: every
  // future must resolve — completed or Unavailable — and never hang. Run
  // under TSan in CI; this is the race the net::Server drain path leans on.
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(200us));
  ServeConfig config;
  config.max_batch = 4;
  config.num_shards = 2;
  LinkingService service(&registry, config);

  constexpr size_t kSubmitters = 4;
  constexpr size_t kPerThread = 50;
  std::mutex futures_mutex;
  std::vector<std::future<LinkResult>> futures;
  std::atomic<size_t> submitted{0};
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (size_t i = 0; i < kPerThread; ++i) {
        std::future<LinkResult> f = service.SubmitLink(Query());
        submitted.fetch_add(1, std::memory_order_release);
        std::lock_guard<std::mutex> lock(futures_mutex);
        futures.push_back(std::move(f));
      }
    });
  }
  // Start the drain mid-burst, concurrent with the submitters, but only once
  // a request is in: a drain that wins the race against every thread start
  // (a loaded machine) would leave nothing to serve.
  while (submitted.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  std::thread drainer([&] { service.Drain(); });
  for (auto& t : submitters) t.join();
  drainer.join();

  size_t ok = 0, unavailable = 0;
  for (auto& f : futures) {
    LinkResult r = f.get();  // must not hang
    if (r.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kUnavailable)
          << r.status.ToString();
      ++unavailable;
    }
  }
  EXPECT_EQ(ok + unavailable, kSubmitters * kPerThread);
  EXPECT_GT(ok, 0u);  // the drain started after real work was queued
}

TEST(LinkingServiceTest, ShutdownFailsQueuedRequests) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(10ms));
  ServeConfig config;
  config.max_batch = 1;
  config.num_shards = 1;
  LinkingService service(&registry, config);

  std::vector<std::future<LinkResult>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(service.SubmitLink(Query()));
  service.Shutdown();

  size_t ok = 0, unavailable = 0;
  for (auto& f : futures) {
    LinkResult r = f.get();  // every future must still resolve
    if (r.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
      ++unavailable;
    }
  }
  EXPECT_EQ(ok + unavailable, 8u);
  EXPECT_GT(unavailable, 0u);
}

/// Snapshot that records LinkBatch slice sizes (each shard pull calls
/// LinkBatch, not per-query Link).
class BatchRecordingSnapshot : public FakeSnapshot {
 public:
  using FakeSnapshot::FakeSnapshot;

  std::vector<std::vector<linking::ScoredCandidate>> LinkBatch(
      const std::vector<std::vector<std::string>>& queries) const override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      slice_sizes_.push_back(queries.size());
    }
    return FakeSnapshot::LinkBatch(queries);
  }

  std::vector<size_t> slice_sizes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return slice_sizes_;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::vector<size_t> slice_sizes_;
};

TEST(LinkingServiceTest, ShardSlicesScoreAsLinkBatchWorkloads) {
  TenantRegistry registry;
  auto snapshot = std::make_shared<BatchRecordingSnapshot>(1ms);
  registry.Publish(kDefaultTenant, snapshot);
  ServeConfig config;
  config.num_shards = 2;
  config.max_batch = 8;
  LinkingService service(&registry, config);

  constexpr size_t kRequests = 16;
  std::vector<std::future<LinkResult>> futures;
  for (size_t i = 0; i < kRequests; ++i) {
    futures.push_back(service.SubmitLink(Query(i + 1)));
  }
  for (size_t i = 0; i < kRequests; ++i) {
    LinkResult r = futures[i].get();
    ASSERT_TRUE(r.status.ok());
    ASSERT_EQ(r.candidates.size(), 1u);
    // Payload round-trip: slice batching must not permute request/result
    // pairing (the fake echoes the query length as the concept id).
    EXPECT_EQ(r.candidates[0].concept_id,
              static_cast<ontology::ConceptId>(i + 1));
  }
  // Every request was scored through LinkBatch slices, at least one of
  // which covered multiple queries.
  size_t covered = 0, multi = 0;
  for (size_t s : snapshot->slice_sizes()) {
    covered += s;
    multi += s > 1 ? 1 : 0;
  }
  EXPECT_EQ(covered, kRequests);
  EXPECT_GT(multi, 0u);
}

TEST(LinkingServiceTest, CandidatesPerBatchHistogramCountsScoredCandidates) {
  obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "ncl.serve.candidates_per_batch");
  const uint64_t count_before = histogram->Stats().count;

  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>());
  LinkingService service(&registry);
  EXPECT_TRUE(service.Link(Query()).status.ok());
  service.Drain();

  // The pull recorded its candidate total (the fake returns 1 per query).
  EXPECT_GT(histogram->Stats().count, count_before);
}

TEST(LinkingServiceTest, HotSwapVersionsAreMonotonePerSubmissionOrder) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(500us));
  ServeConfig config;
  config.max_batch = 2;
  config.num_shards = 2;
  LinkingService service(&registry, config);

  std::vector<std::future<LinkResult>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(service.SubmitLink(Query()));
    if (i == 5) {
      registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(500us));
    }
  }
  uint64_t last = 0;
  for (auto& f : futures) {
    LinkResult r = f.get();
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.snapshot_version == 1 || r.snapshot_version == 2);
    // Pulls are FIFO and pin the snapshot under the queue lock, so versions
    // never go backwards in submission order.
    EXPECT_GE(r.snapshot_version, last);
    last = r.snapshot_version;
  }
  // A request submitted after the swap must see the new model.
  LinkResult after = service.Link(Query());
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.snapshot_version, 2u);
}

TEST(LinkingServiceTest, AssignsRequestIdsAndStageTimings) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(1ms));
  LinkingService service(&registry);

  LinkResult first = service.Link(Query());
  LinkResult second = service.Link(Query());
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  // Ids are assigned at admission, unique and monotone per service order.
  EXPECT_GT(first.request_id, 0u);
  EXPECT_GT(second.request_id, first.request_id);

  // The stage breakdown is populated and internally consistent: stages are
  // non-negative and the end-to-end total is the queue + service split the
  // service already reported.
  EXPECT_GE(first.timings.queue_wait_us, 0.0);
  EXPECT_GE(first.timings.batch_form_us, 0.0);
  EXPECT_NEAR(first.timings.total_us, first.queue_us + first.service_us, 1e-6);
  EXPECT_GT(first.timings.total_us, 0.0);
}

TEST(LinkingServiceTest, FailedRequestsStillCarryTheirRequestId) {
  TenantRegistry registry;  // no snapshot published
  LinkingService service(&registry);
  LinkResult result = service.Link(Query());
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_GT(result.request_id, 0u);
}

// The tentpole acceptance test: one request served with tracing enabled
// renders as a connected flow — the admission span starts edge 0, the
// dispatch marker finishes edge 0 and starts edge 1, the shard's request
// marker finishes edge 1 and starts edge 2 (which the linker would finish
// inside a real NclSnapshot). Golden-substring pinned so the exported JSON
// stays loadable-and-connected in Perfetto.
TEST(LinkingServiceTest, TracedRequestExportsConnectedFlowEvents) {
  obs::SetTracingEnabled(false);
  obs::ClearTrace();
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>());
  LinkingService service(&registry);

  obs::SetTracingEnabled(true);
  LinkResult result = service.Link(Query());
  service.Drain();
  obs::SetTracingEnabled(false);
  ASSERT_TRUE(result.status.ok());
  ASSERT_GT(result.request_id, 0u);

  const std::string json = obs::ChromeTraceJson();
  obs::ClearTrace();
  auto id_str = [&](uint64_t hop) {
    return std::to_string(obs::RequestFlowId(result.request_id, hop));
  };
  // The three serve-layer spans are present...
  EXPECT_NE(json.find("\"name\":\"ncl.serve.admit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ncl.serve.dispatch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ncl.serve.request\""), std::string::npos);
  // ...edge 0 (admit -> dispatch) departs and arrives...
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":" + id_str(0)), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":" + id_str(0)),
            std::string::npos)
      << json;
  // ...edge 1 (dispatch -> shard) departs and arrives...
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":" + id_str(1)), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":" + id_str(1)),
            std::string::npos)
      << json;
  // ...and edge 2 (shard -> linker) departs; a FakeSnapshot has no linker
  // span to terminate it, NclSnapshot does (see ncl_linker's flow span).
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":" + id_str(2)), std::string::npos)
      << json;
}

TEST(LinkingServiceTest, DisabledTracingEmitsNoServeSpans) {
  obs::SetTracingEnabled(false);
  obs::ClearTrace();
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>());
  LinkingService service(&registry);
  EXPECT_TRUE(service.Link(Query()).status.ok());
  service.Drain();
  const std::string json = obs::ChromeTraceJson();
  EXPECT_EQ(json.find("ncl.serve.admit"), std::string::npos);
  EXPECT_EQ(json.find("ncl.flow"), std::string::npos);
}

TEST(LinkingServiceTest, SloDisabledByDefaultConstructsNoWatchdog) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>());
  LinkingService service(&registry);
  EXPECT_EQ(service.slo_watchdog(), nullptr);
  EXPECT_TRUE(service.slow_requests().empty());
}

TEST(LinkingServiceTest, SloWatchdogAndSlowLogCaptureServedTraffic) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(2ms));
  ServeConfig config;
  config.slo.enabled = true;
  config.slo.slow_log_n = 4;
  config.slo.check_interval_ms = 20;
  LinkingService service(&registry, config);
  ASSERT_NE(service.slo_watchdog(), nullptr);

  constexpr size_t kRequests = 12;
  std::vector<std::future<LinkResult>> futures;
  for (size_t i = 0; i < kRequests; ++i) {
    futures.push_back(service.SubmitLink(Query(i + 1)));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  service.Drain();  // stops the watchdog after one final evaluation

  // Every completed request was fed into the rolling window (summed across
  // however many check intervals the burst spanned).
  const SloWindowStats window = service.slo_watchdog()->window();
  EXPECT_GE(window.windows_evaluated, 1u);

  std::vector<SlowRequest> slowest = service.slow_requests();
  ASSERT_FALSE(slowest.empty());
  EXPECT_LE(slowest.size(), config.slo.slow_log_n);
  for (size_t i = 1; i < slowest.size(); ++i) {
    EXPECT_GE(slowest[i - 1].total_us, slowest[i].total_us);
  }
  // Entries carry the full stage breakdown and the query text.
  EXPECT_GT(slowest[0].total_us, 0.0);
  EXPECT_GT(slowest[0].request_id, 0u);
  EXPECT_FALSE(slowest[0].query.empty());
  EXPECT_NEAR(slowest[0].timings.total_us, slowest[0].total_us, 1e-6);
}

}  // namespace
}  // namespace ncl::serve
