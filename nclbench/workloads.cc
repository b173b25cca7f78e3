#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/client.h"
#include "net/router.h"
#include "net/server.h"
#include "serve/model_snapshot.h"

namespace nclbench {

using namespace ncl;

size_t Nproc() { return std::max<size_t>(1, std::thread::hardware_concurrency()); }

namespace {

constexpr size_t kK = 20;
/// COM-AID epochs of the d=32 models: enough for a usable ranking while
/// repeated set-ups stay short.
constexpr size_t kTrainEpochs = 3;

/// Rungs first, first + step, ... up to last.
std::vector<double> Ladder(double first, double last, double step) {
  std::vector<double> rungs;
  for (double rate = first; rate <= last; rate += step) rungs.push_back(rate);
  return rungs;
}

/// Draws one query list in order (wrapping when exhausted); keeps a
/// `keep_p` share of requests for the correctness gate.
Picker SequentialPicker(size_t size, double keep_p) {
  auto next = std::make_shared<size_t>(0);
  return [next, size, keep_p](std::mt19937_64& rng) {
    Request request;
    request.query = static_cast<uint32_t>((*next)++ % size);
    request.keep = std::bernoulli_distribution(keep_p)(rng);
    return request;
  };
}

serve::ServeConfig ServiceConfig(size_t shards) {
  serve::ServeConfig config;
  config.num_shards = shards;
  config.max_batch = 16;
  config.queue_capacity = 4096;
  config.policy = serve::OverloadPolicy::kReject;
  return config;
}

std::shared_ptr<serve::NclSnapshot> MakeSnapshot(
    std::shared_ptr<const comaid::ComAidModel> model, const Corpus& corpus) {
  return std::make_shared<serve::NclSnapshot>(std::move(model), corpus.candidates,
                                              corpus.rewriter);
}

/// What the span replay runs on: `corpus`'s Phase-I components and `model`,
/// with `link_batch` as the workload's LinkBatch call.
LayerProbe MakeProbe(const Corpus& corpus, const comaid::ComAidModel& model, size_t k,
                     double batch_queries,
                     std::function<void(const std::vector<std::vector<std::string>>&)>
                         link_batch) {
  LayerProbe probe;
  probe.model = &model;
  probe.candidates = corpus.candidates.get();
  probe.rewriter = corpus.rewriter.get();
  probe.k = k;
  probe.batch_queries = std::max(1.0, batch_queries);
  probe.link_batch = std::move(link_batch);
  return probe;
}

/// Copy the parts of a ranking the harness keeps.
void RecordRanking(const std::vector<linking::ScoredCandidate>& ranking, bool keep,
                   Outcome* outcome) {
  outcome->top1 = ranking.empty() ? ontology::kInvalidConcept : ranking.front().concept_id;
  if (keep) outcome->ranking = ranking;
}

void SleepUntilNs(int64_t due_ns) {
  const int64_t now = NowNs();
  if (due_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

/// Watches submitted futures and stamps each one when it resolves. Scans the
/// oldest kScan pending futures, then naps kNap on the oldest, so a request
/// that completes out of order is stamped within about kNap.
class Collector {
 public:
  Collector(const std::vector<Request>* schedule, std::vector<Outcome>* out)
      : schedule_(schedule), out_(out), thread_([this] { Loop(); }) {}
  ~Collector() { Close(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Push(size_t index, std::future<serve::LinkResult> future) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      incoming_.emplace_back(index, std::move(future));
      ++outstanding_;
    }
    cv_.notify_all();
  }

  /// Block while `limit` or more requests are outstanding.
  void WaitBelow(size_t limit) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return outstanding_ < limit; });
  }

  /// Wait for every pushed future, then stop the thread.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  static constexpr size_t kScan = 64;
  static constexpr auto kNap = std::chrono::microseconds(100);
  using Item = std::pair<size_t, std::future<serve::LinkResult>>;

  void Loop() {
    std::deque<Item> pending;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (pending.empty()) {
          cv_.wait(lock, [&] { return !incoming_.empty() || closed_; });
        }
        for (auto& item : incoming_) pending.push_back(std::move(item));
        incoming_.clear();
        if (pending.empty() && closed_) return;
      }
      size_t done = 0;
      const size_t scan = std::min(kScan, pending.size());
      for (size_t j = 0; j < scan; ++j) {
        Item& item = pending[j];
        if (!item.second.valid() ||
            item.second.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
          continue;
        }
        Record(item.first, item.second.get());
        ++done;
      }
      if (done > 0) {
        std::erase_if(pending, [](const Item& item) { return !item.second.valid(); });
        {
          std::lock_guard<std::mutex> lock(mutex_);
          outstanding_ -= done;
        }
        cv_.notify_all();
      } else if (!pending.empty()) {
        pending.front().second.wait_for(kNap);
      }
    }
  }

  void Record(size_t index, serve::LinkResult result) {
    Outcome& outcome = (*out_)[index];
    outcome.done_ns = NowNs();
    outcome.ok = result.status.ok();
    outcome.version = result.snapshot_version;
    outcome.timings = result.timings;
    RecordRanking(result.candidates, (*schedule_)[index].keep, &outcome);
  }

  const std::vector<Request>* schedule_;
  std::vector<Outcome>* out_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Item> incoming_;
  size_t outstanding_ = 0;
  bool closed_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

// --- serve_open ------------------------------------------------------------

/// One ICD-10 tenant on an in-process LinkingService.
class ServeOpen : public Workload {
 public:
  static constexpr size_t kDistinctQueries = 100000;
  static constexpr double kRates[kLevels] = {400, 800, 1200};
  static constexpr double kGateShare = 0.03;

  ServeOpen() {
    corpus_ = BuildCorpus(CorpusKind::kHospitalX, 32);
    model_ = TrainModel(*corpus_, kTrainEpochs, kCorpusSeed + 9);
    snapshot_ = MakeSnapshot(model_, *corpus_);
    registry_.Publish("icd10", snapshot_);
    service_ = std::make_unique<serve::LinkingService>(&registry_,
                                                       ServiceConfig(Nproc()));
  }
  ~ServeOpen() override { service_->Shutdown(); }

  std::string Shape() const override {
    std::ostringstream out;
    out << "serve_open: in-process LinkingService, tenant icd10 (hospital-x "
        << "scale=" << kCorpusScale << ", concepts=" << corpus_->data.onto.num_concepts()
        << ", d=32, V=" << model_->vocabulary().size() << ", k=" << kK
        << "), shards=" << Nproc() << ", max_batch=16, 1 generator thread, "
        << "queries in order from " << queries_->front().size()
        << " distinct generated ones, levels " << kRates[0] << "/" << kRates[1] << "/"
        << kRates[2] << " per s open-loop Poisson, nproc=" << Nproc();
    return out.str();
  }
  std::vector<double> Ladder() const override { return nclbench::Ladder(200, 6000, 200); }
  QueryLists MakeQueries(uint64_t seed) override {
    return {GenerateQueries(*corpus_, kDistinctQueries, seed)};
  }
  Picker MakePicker(const QueryLists& queries) const override {
    return SequentialPicker(queries[0].size(), kGateShare);
  }
  Status Start(const QueryLists* queries) override {
    queries_ = queries;
    return Status::OK();
  }

  void Run(const std::vector<Request>& schedule, std::vector<Outcome>* out) override {
    Drive(schedule, 0.0, /*open_loop=*/true, out);
  }
  size_t Saturate(const std::vector<Request>& schedule, double seconds,
                  std::vector<Outcome>* out) override {
    return Drive(schedule, seconds, /*open_loop=*/false, out);
  }
  Phase RunLevel(size_t level, std::mt19937_64& rng, const Picker& pick) override {
    return RunRateSlice(*this, kRates[level], rng, pick);
  }
  bool SetTraced(bool on) override {
    traced_ = on;
    return true;
  }

  const linking::NclLinker& Reference(uint8_t, uint64_t) const override {
    return snapshot_->linker();
  }
  serve::ServeStats ServeTotals() const override { return service_->stats(); }
  LayerProbe Probe(double served_batch) const override {
    // Each shard scores one slice of a dispatched batch.
    auto snapshot = snapshot_;
    return MakeProbe(*corpus_, *model_, kK, served_batch / static_cast<double>(Nproc()),
                     [snapshot](const std::vector<std::vector<std::string>>& batch) {
                       snapshot->LinkBatch(batch);
                     });
  }
  void ReportOwnLayers(const std::vector<const Phase*>&, Report* report) const override {
    ReportNoNetNoPublish(report);
  }

 private:
  /// One generator thread submits; a Collector observes the answers. In a
  /// closed loop at most 4 * max_batch requests are outstanding.
  size_t Drive(const std::vector<Request>& schedule, double seconds, bool open_loop,
               std::vector<Outcome>* out) {
    out->assign(schedule.size(), Outcome{});
    const int64_t stop_ns = NowNs() + static_cast<int64_t>(seconds * 1e9);
    const size_t window = 4 * service_->config().max_batch;
    size_t issued = 0;
    Collector collector(&schedule, out);
    for (; issued < schedule.size(); ++issued) {
      const Request& request = schedule[issued];
      if (open_loop) {
        SleepUntilNs(request.due_ns);
      } else {
        collector.WaitBelow(window);
        if (NowNs() >= stop_ns) break;
      }
      Outcome& outcome = (*out)[issued];
      serve::RequestOptions options;
      options.ontology = "icd10";
      outcome.send_ns = NowNs();
      if (open_loop) outcome.lag_ns = outcome.send_ns - request.due_ns;
      std::future<serve::LinkResult> future = service_->SubmitLink(
          (*queries_)[request.tenant][request.query].tokens, std::move(options));
      if (traced_) outcome.admit_us = (NowNs() - outcome.send_ns) * 1e-3;
      collector.Push(issued, std::move(future));
    }
    collector.Close();
    return issued;
  }

  std::unique_ptr<Corpus> corpus_;
  std::shared_ptr<const comaid::ComAidModel> model_;
  std::shared_ptr<serve::NclSnapshot> snapshot_;
  serve::TenantRegistry registry_;
  std::unique_ptr<serve::LinkingService> service_;
  const QueryLists* queries_ = nullptr;
  bool traced_ = false;
};

// --- fleet_mixed -----------------------------------------------------------

/// Router in front of two replicas, each hosting icd10 and icd9 with
/// distinct models; icd9 alternates between two models.
class FleetMixed : public Workload {
 public:
  static constexpr size_t kReplicas = 2;
  static constexpr size_t kPoolPerTenant = 2000;
  static constexpr double kZipfS = 1.0;
  static constexpr double kRates[kLevels] = {400, 800, 1200};
  static constexpr double kGateShare = 0.05;
  static constexpr size_t kPipelineDepth = 8;
  static constexpr int64_t kPublishPeriodMs = 250;
  /// Requests due this soon after a publish count toward post_publish_p99.
  static constexpr int64_t kPostPublishWindowMs = 50;

  explicit FleetMixed(const std::string& workdir) {
    icd10_ = BuildCorpus(CorpusKind::kHospitalX, 32);
    icd9_ = BuildCorpus(CorpusKind::kMimicIII, 32);
    model10_ = TrainModel(*icd10_, kTrainEpochs, kCorpusSeed + 9);
    model9_[0] = TrainModel(*icd9_, kTrainEpochs, kCorpusSeed + 9);
    model9_[1] = TrainModel(*icd9_, kTrainEpochs, kCorpusSeed + 10);
    ref10_ = MakeSnapshot(model10_, *icd10_);
    for (int m = 0; m < 2; ++m) ref9_[m] = MakeSnapshot(model9_[m], *icd9_);

    net::RouterConfig router_config;
    for (size_t r = 0; r < kReplicas; ++r) {
      auto replica = std::make_unique<Replica>();
      replica->registry.Publish("icd10", MakeSnapshot(model10_, *icd10_));
      const uint64_t version =
          replica->registry.Publish("icd9", MakeSnapshot(model9_[0], *icd9_));
      version_model_[version] = 0;
      replica->service = std::make_unique<serve::LinkingService>(
          &replica->registry, ServiceConfig(Shards()));
      net::ServerConfig server_config;
      server_config.endpoint = Uds(workdir, "replica" + std::to_string(r));
      replica->server = std::make_unique<net::Server>(
          replica->service.get(), &replica->registry, server_config);
      status_ = replica->server->Start();
      if (!status_.ok()) return;
      router_config.backends.push_back(replica->server->bound_endpoint());
      replicas_.push_back(std::move(replica));
    }
    router_config.listen = Uds(workdir, "router");
    router_ = std::make_unique<net::Router>(router_config);
    status_ = router_->Start();
  }

  ~FleetMixed() override {
    {
      std::lock_guard<std::mutex> lock(publish_mutex_);
      stop_publisher_ = true;
    }
    publish_cv_.notify_all();
    if (publisher_.joinable()) publisher_.join();
    clients_.clear();
    if (router_) router_->Stop();
    for (auto& replica : replicas_) {
      replica->server->Stop();
      replica->service->Shutdown();
    }
  }

  std::string Shape() const override {
    std::ostringstream out;
    out << "fleet_mixed: " << Connections() << " pipelined net::Client "
        << "connections -> Router -> " << kReplicas << " replicas over Unix "
        << "sockets, shards/replica=" << Shards() << "; tenants icd10 (hospital-x scale="
        << kCorpusScale << ", concepts=" << icd10_->data.onto.num_concepts()
        << ", d=32, V=" << model10_->vocabulary().size() << ") and icd9 (MIMIC-III scale="
        << kCorpusScale << ", concepts=" << icd9_->data.onto.num_concepts()
        << ", d=32, V=" << model9_[0]->vocabulary().size() << ", two models) 50/50, k="
        << kK << ", Zipf s=" << kZipfS << " over " << kPoolPerTenant
        << " queries/tenant, icd9 republished every " << kPublishPeriodMs
        << " ms, levels " << kRates[0] << "/" << kRates[1] << "/" << kRates[2]
        << " per s open-loop Poisson, nproc=" << Nproc();
    return out.str();
  }
  std::vector<double> Ladder() const override { return nclbench::Ladder(200, 4400, 150); }
  QueryLists MakeQueries(uint64_t seed) override {
    return {GenerateQueries(*icd10_, kPoolPerTenant, seed),
            GenerateQueries(*icd9_, kPoolPerTenant, seed + 1)};
  }
  Picker MakePicker(const QueryLists& queries) const override {
    // Zipf over each tenant's pool: rank r has weight 1 / r^s.
    auto cdf = std::make_shared<std::vector<std::vector<double>>>();
    for (const auto& list : queries) {
      std::vector<double> weights(list.size());
      double total = 0.0;
      for (size_t r = 0; r < list.size(); ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
        weights[r] = total;
      }
      for (double& w : weights) w /= total;
      cdf->push_back(std::move(weights));
    }
    return [cdf](std::mt19937_64& rng) {
      Request request;
      request.tenant = std::bernoulli_distribution(0.5)(rng) ? 1 : 0;
      const auto& weights = (*cdf)[request.tenant];
      const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
      request.query = static_cast<uint32_t>(std::min<size_t>(
          std::lower_bound(weights.begin(), weights.end(), u) - weights.begin(),
          weights.size() - 1));
      request.keep = std::bernoulli_distribution(kGateShare)(rng);
      return request;
    };
  }
  /// Connects the clients and starts the hot-swap publisher.
  Status Start(const QueryLists* queries) override {
    NCL_RETURN_NOT_OK(status_);
    queries_ = queries;
    for (size_t c = 0; c < Connections(); ++c) {
      NCL_ASSIGN_OR_RETURN(std::unique_ptr<net::Client> client,
                           net::Client::Connect(router_->bound_endpoint()));
      clients_.push_back(std::move(client));
    }
    publisher_ = std::thread([this] { PublishLoop(); });
    return Status::OK();
  }

  void Run(const std::vector<Request>& schedule, std::vector<Outcome>* out) override {
    Drive(schedule, 0.0, /*open_loop=*/true, out);
  }
  size_t Saturate(const std::vector<Request>& schedule, double seconds,
                  std::vector<Outcome>* out) override {
    return Drive(schedule, seconds, /*open_loop=*/false, out);
  }
  Phase RunLevel(size_t level, std::mt19937_64& rng, const Picker& pick) override {
    return RunRateSlice(*this, kRates[level], rng, pick);
  }

  const linking::NclLinker& Reference(uint8_t tenant, uint64_t version) const override {
    if (tenant == 0) return ref10_->linker();
    std::lock_guard<std::mutex> lock(publish_mutex_);
    auto it = version_model_.find(version);
    return ref9_[it == version_model_.end() ? 0 : it->second]->linker();
  }
  serve::ServeStats ServeTotals() const override {
    serve::ServeStats total;
    for (const auto& replica : replicas_) {
      const serve::ServeStats s = replica->service->stats();
      total.admitted += s.admitted;
      total.rejected += s.rejected;
      total.shed += s.shed;
      total.deadline_exceeded += s.deadline_exceeded;
      total.completed += s.completed;
      total.batches += s.batches;
    }
    return total;
  }
  LayerProbe Probe(double served_batch) const override {
    auto snapshot = ref10_;
    return MakeProbe(*icd10_, *model10_, kK, served_batch / static_cast<double>(Shards()),
                     [snapshot](const std::vector<std::vector<std::string>>& batch) {
                       snapshot->LinkBatch(batch);
                     });
  }
  void ReportOwnLayers(const std::vector<const Phase*>& traced,
                       Report* report) const override {
    std::vector<int64_t> publishes;
    Dist publish_us;
    {
      std::lock_guard<std::mutex> lock(publish_mutex_);
      publishes = publish_times_;
      publish_us = publish_us_;
    }
    Dist rtt, overhead, post_publish;
    for (const Phase* slice : traced) {
      for (size_t i = 0; i < slice->schedule.size(); ++i) {
        const Outcome& o = slice->outcomes[i];
        if (!o.ok) continue;
        const double rtt_us = (o.done_ns - o.send_ns) * 1e-3;
        rtt.Add(rtt_us);
        overhead.Add(rtt_us - o.timings.total_us);
        const int64_t due = slice->schedule[i].due_ns;
        auto it = std::upper_bound(publishes.begin(), publishes.end(), due);
        if (it != publishes.begin() && due - *(it - 1) < kPostPublishWindowMs * 1'000'000) {
          post_publish.Add((o.done_ns - due) * 1e-6);
        }
      }
    }
    report->Add("net.rtt_us.p50", rtt.Pct(0.5), "us", rtt.size(),
                "span: SendLink -> ReceiveLink");
    report->Add("net.rtt_us.p99", rtt.Pct(0.99), "us", rtt.size());
    report->Add("net.overhead_us.p50", overhead.Pct(0.5), "us", overhead.size(),
                "per request: rtt - RequestTimings.total_us");
    report->Add("net.overhead_us.p99", overhead.Pct(0.99), "us", overhead.size());

    const net::RouterStats router = router_->stats();
    uint64_t routed = 0, routed_max = 0;
    for (const auto& backend : router.backends) {
      routed += backend.routed;
      routed_max = std::max(routed_max, backend.routed);
    }
    uint64_t decode_errors = 0;
    for (const auto& replica : replicas_) {
      decode_errors += replica->server->stats().decode_errors;
    }
    report->Add("net.router.backend_share_max",
                routed ? static_cast<double>(routed_max) / routed : 0.0, "fraction",
                routed, "RouterStats: busiest backend's share of routed requests");
    report->Add("net.router.retried", static_cast<double>(router.retried), "count");
    report->Add("net.router.failed", static_cast<double>(router.failed), "count");
    report->Add("net.server.decode_errors", static_cast<double>(decode_errors), "count");
    report->Add("serve.publish_us.p99", publish_us.Pct(0.99), "us", publish_us.size(),
                "span: NclSnapshot + TenantRegistry::Publish, per replica");
    report->Add("serve.post_publish_p99_ms", post_publish.Pct(0.99), "ms",
                post_publish.size(),
                "requests due within " + std::to_string(kPostPublishWindowMs) +
                    " ms of a publish");
  }

 private:
  struct Replica {
    serve::TenantRegistry registry;
    std::unique_ptr<serve::LinkingService> service;
    std::unique_ptr<net::Server> server;
  };

  static size_t Connections() { return std::min<size_t>(4, Nproc()); }
  static size_t Shards() { return std::max<size_t>(1, Nproc() / kReplicas); }

  static net::Endpoint Uds(const std::string& workdir, const std::string& name) {
    net::Endpoint endpoint;
    endpoint.kind = net::Endpoint::Kind::kUnix;
    endpoint.path = workdir + "/nclbench-" + name + ".sock";
    return endpoint;
  }

  /// Every connection thread claims the requests that are due (up to
  /// kPipelineDepth), sends them, then reads their answers. Lateness counts
  /// only while the connection was free to send.
  size_t Drive(const std::vector<Request>& schedule, double seconds, bool open_loop,
               std::vector<Outcome>* out) {
    out->assign(schedule.size(), Outcome{});
    const int64_t stop_ns = NowNs() + static_cast<int64_t>(seconds * 1e9);
    std::mutex cursor_mutex;
    size_t cursor = 0;  // guarded by cursor_mutex

    auto connection_loop = [&](net::Client* client) {
      std::vector<size_t> claimed;
      std::unordered_map<uint64_t, size_t> by_correlation;
      int64_t free_ns = NowNs();
      while (true) {
        claimed.clear();
        {
          std::unique_lock<std::mutex> lock(cursor_mutex);
          if (cursor == schedule.size()) return;
          if (!open_loop && NowNs() >= stop_ns) return;
          const int64_t next_due = schedule[cursor].due_ns;
          if (open_loop && next_due > NowNs()) {
            lock.unlock();
            SleepUntilNs(next_due);
            free_ns = std::max(free_ns, next_due);
            continue;
          }
          const int64_t now = NowNs();
          while (cursor < schedule.size() && claimed.size() < kPipelineDepth &&
                 (!open_loop || schedule[cursor].due_ns <= now)) {
            claimed.push_back(cursor++);
          }
        }
        by_correlation.clear();
        for (size_t index : claimed) {
          const Request& request = schedule[index];
          Outcome& outcome = (*out)[index];
          outcome.send_ns = NowNs();
          if (open_loop) {
            outcome.lag_ns = outcome.send_ns - std::max(request.due_ns, free_ns);
          }
          Result<uint64_t> sent = client->SendLink(
              (*queries_)[request.tenant][request.query].tokens,
              /*deadline_us=*/0, request.tenant == 0 ? "icd10" : "icd9");
          if (sent.ok()) by_correlation[*sent] = index;
        }
        while (!by_correlation.empty()) {
          uint64_t correlation = 0;
          Result<net::LinkResponseMsg> response = client->ReceiveLink(&correlation);
          if (!response.ok()) break;  // connection reset: the rest failed
          auto it = by_correlation.find(correlation);
          if (it == by_correlation.end()) continue;
          Outcome& outcome = (*out)[it->second];
          outcome.done_ns = NowNs();
          outcome.ok = response->status.ok();
          outcome.version = response->snapshot_version;
          outcome.timings = response->timings;
          RecordRanking(response->candidates, schedule[it->second].keep, &outcome);
          by_correlation.erase(it);
        }
        free_ns = NowNs();
      }
    };

    std::vector<std::thread> threads;
    for (auto& client : clients_) threads.emplace_back(connection_loop, client.get());
    for (auto& thread : threads) thread.join();
    return cursor;
  }

  /// The Appendix-A hot swap: publish the other pre-trained, pre-warmed icd9
  /// model on every replica each period.
  void PublishLoop() {
    int next = 1;
    std::unique_lock<std::mutex> lock(publish_mutex_);
    while (!publish_cv_.wait_for(lock, std::chrono::milliseconds(kPublishPeriodMs),
                                 [&] { return stop_publisher_; })) {
      lock.unlock();
      const int64_t start = NowNs();
      uint64_t version = 0;
      for (auto& replica : replicas_) {
        version = replica->registry.Publish("icd9", MakeSnapshot(model9_[next], *icd9_));
      }
      const double us = (NowNs() - start) * 1e-3 / static_cast<double>(replicas_.size());
      lock.lock();
      version_model_[version] = next;
      publish_times_.push_back(start);
      publish_us_.Add(us);
      next = 1 - next;
    }
  }

  std::unique_ptr<Corpus> icd10_, icd9_;
  std::shared_ptr<const comaid::ComAidModel> model10_;
  std::shared_ptr<const comaid::ComAidModel> model9_[2];
  std::shared_ptr<serve::NclSnapshot> ref10_;
  std::shared_ptr<serve::NclSnapshot> ref9_[2];
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::unique_ptr<net::Router> router_;
  Status status_;
  const QueryLists* queries_ = nullptr;
  std::vector<std::unique_ptr<net::Client>> clients_;

  mutable std::mutex publish_mutex_;
  std::condition_variable publish_cv_;
  bool stop_publisher_ = false;             // guarded by publish_mutex_
  std::map<uint64_t, int> version_model_;   // guarded by publish_mutex_
  std::vector<int64_t> publish_times_;      // guarded by publish_mutex_
  Dist publish_us_;                         // guarded by publish_mutex_
  std::thread publisher_;
};

// --- bulk_link -------------------------------------------------------------

/// NclLinker::LinkBatchDetailed at d=128 on nproc scoring threads. Its
/// levels are closed-loop calls of kLevelBatch queries; the staircase feeds
/// it open-loop in calls of up to kBatch queries that are due.
class BulkLink : public Workload {
 public:
  static constexpr size_t kDistinctQueries = 40000;
  /// BENCH_fig11_batch's acceptance shape is d=128, k=10.
  static constexpr size_t kBulkK = 10;
  /// Queries per call at throughput and in the staircase.
  static constexpr size_t kBatch = 16;
  /// Lanes per call: 60 fill two tiles (two threads), 120 four (every
  /// thread once), 160 five (a second wave).
  static constexpr size_t kLevelBatch[kLevels] = {6, 12, kBatch};
  /// A level slice is calls worth kSliceQueries queries, at least
  /// kMinSliceCalls calls.
  static constexpr size_t kSliceQueries = 192;
  static constexpr size_t kMinSliceCalls = 16;
  static constexpr double kGateShare = 0.04;
  static constexpr double kTrainPairShare = 1.0 / 3.0;

  BulkLink() {
    corpus_ = BuildCorpus(CorpusKind::kHospitalX, 128);
    // A third of one epoch: timings need a model of the acceptance shape,
    // not a good one, and d=128 training dominates set-up time.
    model_ = TrainModel(*corpus_, 1, kCorpusSeed + 9, kTrainPairShare);
    linking::NclConfig config;
    config.k = kBulkK;
    config.scoring_threads = Nproc();
    linker_ = std::make_unique<linking::NclLinker>(
        model_.get(), corpus_->candidates.get(), corpus_->rewriter.get(), config);
  }

  std::string Shape() const override {
    std::ostringstream out;
    out << "bulk_link: one caller, NclLinker::LinkBatchDetailed, levels = "
        << "closed-loop calls of " << kLevelBatch[0] << "/" << kLevelBatch[1] << "/"
        << kLevelBatch[2] << " queries, throughput at " << kBatch
        << ", staircase fed open-loop in calls of up to " << kBatch
        << ", scoring_threads=" << Nproc() << "; hospital-x scale=" << kCorpusScale
        << ", concepts=" << corpus_->data.onto.num_concepts()
        << ", d=128, V=" << model_->vocabulary().size() << ", k=" << kBulkK
        << ", queries in order from " << queries_->front().size()
        << " distinct generated ones, nproc=" << Nproc();
    return out.str();
  }
  std::vector<double> Ladder() const override { return nclbench::Ladder(100, 2000, 60); }
  QueryLists MakeQueries(uint64_t seed) override {
    return {GenerateQueries(*corpus_, kDistinctQueries, seed)};
  }
  Picker MakePicker(const QueryLists& queries) const override {
    return SequentialPicker(queries[0].size(), kGateShare);
  }
  Status Start(const QueryLists* queries) override {
    queries_ = queries;
    return Status::OK();
  }

  /// Open loop: each call links the queries that are due, up to kBatch.
  void Run(const std::vector<Request>& schedule, std::vector<Outcome>* out) override {
    out->assign(schedule.size(), Outcome{});
    size_t next = 0;
    while (next < schedule.size()) {
      int64_t free_ns = NowNs();
      if (schedule[next].due_ns > free_ns) {
        SleepUntilNs(schedule[next].due_ns);
        free_ns = schedule[next].due_ns;
      }
      const int64_t now = NowNs();
      size_t end = next;
      while (end < schedule.size() && end - next < kBatch && schedule[end].due_ns <= now) {
        ++end;
      }
      LinkCall(schedule, next, end, out);
      for (size_t i = next; i < end; ++i) {
        (*out)[i].lag_ns = now - std::max(schedule[i].due_ns, free_ns);
      }
      next = end;
    }
  }
  size_t Saturate(const std::vector<Request>& schedule, double seconds,
                  std::vector<Outcome>* out) override {
    out->assign(schedule.size(), Outcome{});
    const int64_t stop_ns = NowNs() + static_cast<int64_t>(seconds * 1e9);
    size_t next = 0;
    while (next + kBatch <= schedule.size() && NowNs() < stop_ns) {
      LinkCall(schedule, next, next + kBatch, out);
      next += kBatch;
    }
    return next;
  }
  /// Closed loop: consecutive calls of kLevelBatch[level] queries.
  Phase RunLevel(size_t level, std::mt19937_64& rng, const Picker& pick) override {
    const size_t batch = kLevelBatch[level];
    const size_t calls = std::max(kMinSliceCalls, kSliceQueries / batch);
    std::vector<Request> schedule;
    for (size_t q = 0; q < calls * batch; ++q) schedule.push_back(pick(rng));
    std::vector<Outcome> outcomes(schedule.size());
    for (size_t next = 0; next < schedule.size(); next += batch) {
      LinkCall(schedule, next, next + batch, &outcomes);
    }
    return SummarisePhase(0.0, std::move(schedule), std::move(outcomes));
  }

  const linking::NclLinker& Reference(uint8_t, uint64_t) const override {
    return *linker_;
  }
  LayerProbe Probe(double) const override {
    const linking::NclLinker* linker = linker_.get();
    return MakeProbe(*corpus_, *model_, kBulkK, static_cast<double>(kBatch),
                     [linker](const std::vector<std::vector<std::string>>& batch) {
                       linker->LinkBatchDetailed(batch);
                     });
  }
  void ReportOwnLayers(const std::vector<const Phase*>&, Report* report) const override {
    ReportNoNetNoPublish(report);
  }

 private:
  /// Link schedule[begin, end) in one LinkBatchDetailed call. Each query's
  /// outcome carries its phase stamps and its share of the call as total_us.
  void LinkCall(const std::vector<Request>& schedule, size_t begin, size_t end,
                std::vector<Outcome>* out) {
    std::vector<std::vector<std::string>> batch;
    batch.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      batch.push_back((*queries_)[schedule[i].tenant][schedule[i].query].tokens);
    }
    std::vector<linking::PhaseTimings> stamps;
    const int64_t send = NowNs();
    auto rankings = linker_->LinkBatchDetailed(batch, &stamps);
    const int64_t done = NowNs();
    const auto size = static_cast<uint32_t>(end - begin);
    for (size_t i = begin; i < end; ++i) {
      Outcome& outcome = (*out)[i];
      const linking::PhaseTimings& stamp = stamps[i - begin];
      outcome.send_ns = send;
      outcome.done_ns = done;
      outcome.ok = true;
      outcome.call_size = size;
      outcome.timings.candgen_us = stamp.rewrite_us + stamp.retrieve_us;
      outcome.timings.ed_us = stamp.score_us;
      outcome.timings.rank_us = stamp.rank_us;
      outcome.timings.total_us = (done - send) * 1e-3 / size;
      RecordRanking(rankings[i - begin], schedule[i].keep, &outcome);
    }
  }

  std::unique_ptr<Corpus> corpus_;
  std::shared_ptr<const comaid::ComAidModel> model_;
  std::unique_ptr<linking::NclLinker> linker_;
  const QueryLists* queries_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& workdir) {
  if (name == "serve_open") return std::make_unique<ServeOpen>();
  if (name == "fleet_mixed") return std::make_unique<FleetMixed>(workdir);
  if (name == "bulk_link") return std::make_unique<BulkLink>();
  return nullptr;
}

}  // namespace nclbench
