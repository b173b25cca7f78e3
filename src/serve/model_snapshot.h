// RCU-style model snapshots for the serving path.
//
// The trainer's contract (see comaid/model.h) is that weight mutation must
// never overlap a scoring call — NotifyWeightsChanged clears the concept
// encoding cache, which is not safe against concurrent readers. That
// contract is trivial in a train-then-serve batch job but impossible to
// uphold when the Appendix-A feedback loop retrains *while* a linking
// service is under traffic. Snapshots restore it:
//
//   * A ModelSnapshot is an immutable, versioned scoring unit. Once
//     published it is never mutated; its model's encoding cache is warmed
//     (or filled lazily by race-safe Put calls) but never Cleared.
//   * SnapshotRegistry holds the current snapshot behind a mutex-guarded
//     shared_ptr. Readers pin it with Current() — a shared_ptr copy — and
//     score against it for as long as they like; Publish swaps the pointer,
//     so new requests pick up the new weights while in-flight requests
//     finish on the old snapshot, which dies with its last reference.
//   * The retrain loop therefore never touches a live model: it trains a
//     *fresh* ComAidModel (mutation and cache invalidation happen before
//     the model is visible to any scorer) and publishes it atomically.
//
// Observability: Publish counts `ncl.serve.snapshot_publishes` and sets the
// `ncl.serve.snapshot_version` gauge.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "comaid/model.h"
#include "linking/ncl_linker.h"

namespace ncl::serve {

/// \brief One immutable, versioned scoring unit.
///
/// Subclasses implement Link; the base class carries the version assigned
/// at Publish time. Instances must be immutable (thread-safe for concurrent
/// Link calls) from the moment they are handed to SnapshotRegistry::Publish.
class ModelSnapshot {
 public:
  virtual ~ModelSnapshot() = default;

  /// Score `query`, best candidate first. Must be const-thread-safe.
  virtual std::vector<linking::ScoredCandidate> Link(
      const std::vector<std::string>& query) const = 0;

  /// \brief Score several queries as one workload, results in query order.
  ///
  /// The base implementation is a Link loop; snapshots with a batched
  /// scoring path (NclSnapshot) override it so candidates from different
  /// queries share lock-step GEMM tiles. Per-query results must equal what
  /// Link would return. Must be const-thread-safe.
  virtual std::vector<std::vector<linking::ScoredCandidate>> LinkBatch(
      const std::vector<std::vector<std::string>>& queries) const;

  /// \brief LinkBatch with request observability: per-query trace flow ids
  /// and per-query phase timings.
  ///
  /// `flow_ids`, when non-null, holds one flow-edge id per query (0 = none)
  /// that the snapshot's scorer terminates with a span, connecting the
  /// serving request's trace lane into the scoring internals. `timings`,
  /// when non-null, receives one PhaseTimings per query. The base
  /// implementation delegates to LinkBatch, ignores flow ids and zero-fills
  /// timings, so plain snapshots (tests, fakes) need not care.
  virtual std::vector<std::vector<linking::ScoredCandidate>> LinkBatchTraced(
      const std::vector<std::vector<std::string>>& queries,
      const uint64_t* flow_ids,
      std::vector<linking::PhaseTimings>* timings) const;

  /// Version assigned by SnapshotRegistry::Publish (0 = never published).
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

 private:
  friend class SnapshotRegistry;
  std::atomic<uint64_t> version_{0};
};

/// \brief The production snapshot: a COM-AID model behind an NclLinker.
///
/// Owns (shares) the model and the Phase-I components so a snapshot keeps
/// everything it scores with alive for as long as any request holds it.
/// Phase-I components are usually shared across snapshots — retraining
/// changes the weights, not the TF-IDF index — while the model is fresh per
/// publish. The linker is configured with `scoring_threads = 1` by default
/// overrideable via `config`: under the serving scheduler, parallelism comes
/// from batching *across* queries, so per-query fan-out would only add
/// synchronisation overhead.
class NclSnapshot : public ModelSnapshot {
 public:
  /// \param model must not be mutated after this call (weights frozen).
  /// \param rewriter may be nullptr (rewriting disabled).
  /// \param warm_cache eagerly precompute every concept encoding before the
  ///        snapshot becomes visible; off, encodings fill lazily (race-safe).
  NclSnapshot(std::shared_ptr<const comaid::ComAidModel> model,
              std::shared_ptr<const linking::CandidateGenerator> candidates,
              std::shared_ptr<const linking::QueryRewriter> rewriter,
              linking::NclConfig config = MakeServingConfig(),
              bool warm_cache = false);

  std::vector<linking::ScoredCandidate> Link(
      const std::vector<std::string>& query) const override;

  /// Batched override: pools every (query, candidate) lane through
  /// NclLinker::LinkBatchDetailed so one shard scores its whole micro-batch
  /// slice as a single GEMM workload.
  std::vector<std::vector<linking::ScoredCandidate>> LinkBatch(
      const std::vector<std::vector<std::string>>& queries) const override;

  /// Traced override: same pooled pass, but forwards flow ids and surfaces
  /// the linker's per-query Fig. 11 phase split.
  std::vector<std::vector<linking::ScoredCandidate>> LinkBatchTraced(
      const std::vector<std::vector<std::string>>& queries,
      const uint64_t* flow_ids,
      std::vector<linking::PhaseTimings>* timings) const override;

  const comaid::ComAidModel& model() const { return *model_; }
  const linking::NclLinker& linker() const { return *linker_; }

  /// The NclConfig defaults appropriate for a serving shard: no scoring
  /// pool (the service parallelises across shards, and each shard's
  /// micro-batch already fills lock-step tiles).
  static linking::NclConfig MakeServingConfig() {
    linking::NclConfig config;
    config.scoring_threads = 1;
    return config;
  }

 private:
  std::shared_ptr<const comaid::ComAidModel> model_;
  std::shared_ptr<const linking::CandidateGenerator> candidates_;
  std::shared_ptr<const linking::QueryRewriter> rewriter_;
  std::unique_ptr<linking::NclLinker> linker_;
};

/// \brief Mutex-guarded publication point for the current snapshot.
///
/// Current() is a shared_ptr copy under the mutex (two atomic RMWs — cheap
/// relative to a Phase-II scoring pass, and taken once per *batch*, not per
/// request, by LinkingService). Publish assigns the next version and swaps.
class SnapshotRegistry {
 public:
  SnapshotRegistry() = default;
  SnapshotRegistry(const SnapshotRegistry&) = delete;
  SnapshotRegistry& operator=(const SnapshotRegistry&) = delete;

  /// The live snapshot, pinned: stays valid (and immutable) for as long as
  /// the caller holds the pointer, even across a Publish. Null before the
  /// first Publish.
  std::shared_ptr<const ModelSnapshot> Current() const;

  /// Atomically install `snapshot` as the current one and return its newly
  /// assigned version (monotone from 1). The previous snapshot is released —
  /// it is destroyed once the last in-flight request drops it.
  uint64_t Publish(std::shared_ptr<ModelSnapshot> snapshot);

  /// Version of the live snapshot (0 before the first Publish).
  uint64_t current_version() const;

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const ModelSnapshot> current_;
  uint64_t next_version_ = 1;
};

/// Tenant id used when a request names no ontology.
inline constexpr std::string_view kDefaultTenant = "default";

/// \brief A keyed family of SnapshotRegistry publication points — one per
/// ontology (tenant).
///
/// One serving process holds one TenantRegistry; each tenant id ("icd9",
/// "icd10", ...) maps to its own registry with its own monotone version
/// sequence, so a feedback loop can hot-swap one ontology's model without
/// touching its neighbours. Lookup of an unknown tenant is not an error at
/// this layer: Current returns null (the service fails the request with
/// FailedPrecondition) and current_version returns 0. Registries are
/// created on first Publish and never removed, so a tenant's registry may
/// be used after the map lock is released.
class TenantRegistry {
 public:
  TenantRegistry() = default;
  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// The live snapshot for `tenant`, pinned; null when the tenant is
  /// unknown or has never published.
  std::shared_ptr<const ModelSnapshot> Current(std::string_view tenant) const;

  /// Publish `snapshot` as tenant `tenant`'s current model, creating the
  /// tenant on first use. Returns the tenant-local version (monotone from 1
  /// per tenant).
  uint64_t Publish(std::string_view tenant,
                   std::shared_ptr<ModelSnapshot> snapshot);

  /// Tenant-local version of `tenant`'s live snapshot (0 when unknown or
  /// never published).
  uint64_t current_version(std::string_view tenant) const;

  /// Newest live version across every tenant (0 when nothing is published).
  /// This is what a single-number health report (wire kHealthResponse)
  /// carries for a multi-tenant replica.
  uint64_t max_version() const;

  /// Ids of every tenant that has published, sorted.
  std::vector<std::string> Tenants() const;

 private:
  mutable std::mutex mutex_;
  /// std::map, not unordered: Tenants() comes out sorted and the
  /// transparent std::less<> comparator lets string_view look up without an
  /// allocation.
  std::map<std::string, std::unique_ptr<SnapshotRegistry>, std::less<>>
      tenants_;
};

}  // namespace ncl::serve
