// NCL: the two-phase online concept linker (§5).
//
// Phase I rewrites out-of-vocabulary query words (QueryRewriter) and
// retrieves k candidate concepts by TF-IDF cosine (CandidateGenerator).
// Phase II evaluates p(q|c; Θ) with the trained COM-AID model for each
// candidate — on a thread pool, as the paper's ten-thread encode-decode
// stage does (Appendix B.1) — and returns the candidates re-ranked by
// descending probability. Per §5, words appearing in both the canonical
// description and the query are temporarily removed before scoring.
// LinkDetailed exposes per-phase wall-clock timings (the OR / CR / ED / RT
// split of Fig. 11) and per-candidate losses for the feedback controller.
// There is one pipeline: LinkDetailed is LinkBatchDetailed on one query, and
// Phase II always scores through ComAidModel::ScoreLogProbFastBatch.
//
// Observability: every linked query publishes the same per-phase durations
// that fill PhaseTimings to the `ncl.link.*` histograms of the global
// metrics registry, and runs under `ncl.link_batch` (the call),
// `ncl.link.query` (one query's OR + CR) and `ncl.link.score` (the pooled
// ED pass) trace spans (see src/obs/). The config is immutable after
// construction — a linker is shared across scoring threads.

#pragma once

#include <memory>
#include <unordered_map>
#include <string>
#include <vector>

#include "comaid/model.h"
#include "linking/candidate_generator.h"
#include "linking/linker_interface.h"
#include "linking/query_rewriter.h"
#include "util/thread_pool.h"

namespace ncl::linking {

/// Online-linking knobs.
struct NclConfig {
  /// Phase-I candidate count k (paper default: 20).
  size_t k = 20;
  /// Apply query rewriting (requires a QueryRewriter).
  bool rewrite_queries = true;
  /// §5 Phase II: drop words shared with the candidate's canonical
  /// description before scoring.
  bool remove_shared_words = true;
  /// Length-normalise Phase-II scores: rank by mean log-probability per
  /// decoded factor (|target| words + <eos>) instead of the raw sum. Off by
  /// default: with shared-word removal the raw sum deliberately rewards
  /// candidates that explain more of the query lexically (Eq. 3 semantics).
  bool length_normalize = false;
  /// Threads for parallel encode-decode scoring (paper uses ten). Phase II
  /// splits its lanes into ComAidModel::kDefaultScoreLanes-wide tiles, one
  /// pool task each, so threads only engage once a call has more lanes than
  /// one tile.
  size_t scoring_threads = 10;
  /// Optional non-uniform concept prior for MAP estimation (Eq. 11): maps
  /// concept id -> prior probability. Candidates absent from the map get
  /// `default_prior`. When empty, the uniform-prior MLE of Eq. 12 applies.
  std::unordered_map<ontology::ConceptId, double> concept_prior;
  double default_prior = 1e-6;
};

/// One Phase-II scored candidate.
struct ScoredCandidate {
  ontology::ConceptId concept_id = ontology::kInvalidConcept;
  double log_prob = 0.0;  ///< log p(q|c; Θ)
  double loss = 0.0;      ///< -log p(q|c; Θ), the Appendix-A Loss value
};

/// Wall-clock microseconds per online phase (Fig. 11 decomposition).
struct PhaseTimings {
  double rewrite_us = 0.0;   ///< OR: out-of-vocabulary word replacement
  double retrieve_us = 0.0;  ///< CR: candidate concept retrieval
  double score_us = 0.0;     ///< ED: encode-decode probability evaluation
  double rank_us = 0.0;      ///< RT: ranking
  double total_us() const { return rewrite_us + retrieve_us + score_us + rank_us; }
};

/// \brief The NCL linker.
class NclLinker : public ConceptLinker {
 public:
  /// All pointers must outlive the linker; `rewriter` may be nullptr (then
  /// rewriting is skipped regardless of config). `config.k` must be > 0.
  NclLinker(const comaid::ComAidModel* model, const CandidateGenerator* candidates,
            const QueryRewriter* rewriter, NclConfig config = {});

  std::string name() const override { return "NCL"; }

  Ranking Link(const std::vector<std::string>& query, size_t k) const override;

  /// Full pipeline with timings: returns candidates re-ranked by Phase II.
  /// Same as LinkBatchDetailed on the one query.
  std::vector<ScoredCandidate> LinkDetailed(const std::vector<std::string>& query,
                                            PhaseTimings* timings = nullptr) const;

  /// \brief Link several queries as one ED workload.
  ///
  /// Runs OR/CR per query, then pools every (query, candidate) pair into a
  /// single batched Phase-II scoring pass: lock-step tiles can span queries,
  /// so a micro-batch of small-k queries still fills whole GEMM tiles. The
  /// per-query rankings are identical to calling LinkDetailed per query
  /// (same scores — the batched scorer is lane-order invariant).
  /// `timings`, when non-null, receives one PhaseTimings per query. A
  /// query's ED time is its own token mapping and target building plus its
  /// lane share of the pooled scoring pass.
  /// `flow_ids`, when non-null, holds one trace flow-edge id per query (see
  /// obs::RequestFlowId; 0 = none): each query's Phase-I work then runs
  /// under an `ncl.link.query` span that terminates that flow edge, so a
  /// serving request renders as a connected lane from admission down to the
  /// shard's linker in Perfetto. Ignored while tracing is disabled.
  std::vector<std::vector<ScoredCandidate>> LinkBatchDetailed(
      const std::vector<std::vector<std::string>>& queries,
      std::vector<PhaseTimings>* timings = nullptr,
      const uint64_t* flow_ids = nullptr) const;

  // There is deliberately no config mutator (a set_k once lived here): the
  // linker is logically const and shared across threads, so a post-hoc
  // config write would race with in-flight LinkDetailed calls. Build a new
  // linker (they are cheap — all heavy state is borrowed) to change k.
  const NclConfig& config() const { return config_; }

 private:
  const comaid::ComAidModel* model_;
  const CandidateGenerator* candidates_;
  const QueryRewriter* rewriter_;
  NclConfig config_;
  mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace ncl::linking
