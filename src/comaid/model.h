// The COM-AID model (§4): COMposite AttentIonal encode-Decode network.
//
// Encodes a concept's canonical description with an LSTM (§4.1.1), then
// decodes a text snippet from the concept representation with a
// text-structure duet decoder (§4.1.2):
//   * text-based attention over the encoder's hidden states (Eqs. 5–6),
//   * structure-based attention over the representations of the concept's
//     ancestors (Eq. 7, Def. 4.1), encoded by the *same* encoder weights,
//   * a composite layer  s~_t = tanh(W_d [s_t; tc_t; sc_t] + b_d)  (Eq. 8),
//   * a vocabulary softmax  p(w_t | w_<t, c) = softmax(W_s s~_t + b_s)
//     (Eq. 9), chained into p(q|c) by Eq. 3.
//
// The two attention switches produce the paper's ablation variants
// (Fig. 6): disabling structural attention yields COM-AID^-c (attentional
// seq2seq, Bahdanau et al. [2]); disabling textual attention yields
// COM-AID^-w; disabling both yields COM-AID^-wc (seq2seq, Sutskever et
// al. [40]).

#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "comaid/inference.h"
#include "nn/lstm.h"
#include "nn/parameter.h"
#include "nn/tape.h"
#include "ontology/ontology.h"
#include "pretrain/embeddings.h"
#include "text/vocabulary.h"
#include "util/status.h"

namespace ncl {
class ThreadPool;
}

namespace ncl::comaid {

/// Architecture/ablation configuration.
struct ComAidConfig {
  /// Word-embedding and hidden width d. The paper allows them to differ but
  /// assumes equality (§6.1 fn 10); we follow suit.
  size_t dim = 50;
  /// Structural-context depth β (Def. 4.1); at least 1 when
  /// structural_attention is on (the constructor checks).
  int32_t beta = 2;
  /// Text-based attention (Eqs. 5–6). Off => COM-AID^-w family.
  bool text_attention = true;
  /// Structure-based attention (Eq. 7). Off => COM-AID^-c family.
  bool structural_attention = true;
  uint64_t seed = 1234;
};

/// Human-readable variant name: "COM-AID", "COM-AID-c", "COM-AID-w",
/// "COM-AID-wc" per the ablation switches.
std::string VariantName(const ComAidConfig& config);

/// \brief The model: parameters + forward/score entry points.
///
/// Thread-safety: while no weight mutation is in flight, the scoring entry
/// points (ScoreLogProb / ScoreLogProbIds / ScoreLogProbFastBatch /
/// EncodeConcept / NextWordLogProbs) are safe to call concurrently. The tape
/// paths read parameter values through private tapes; the tape-free scorer
/// additionally shares the concept-encoding cache, whose readers are
/// lock-free and whose lazy fills are race-safe (see ConceptEncodingCache).
/// Weight mutation — training, InitializeEmbeddings, model loading — must be
/// single-threaded and must not overlap any scoring call; each mutation ends
/// with NotifyWeightsChanged(), which invalidates the encoding cache.
class ComAidModel {
 public:
  /// Special decoder tokens (always present in the model vocabulary).
  static constexpr const char* kBos = "<bos>";
  static constexpr const char* kEos = "<eos>";
  static constexpr const char* kUnk = "<unk>";

  /// \param onto the ontology; must outlive the model.
  /// \param extra_snippets additional token sequences whose words join the
  ///        model vocabulary (typically the labeled training aliases).
  ComAidModel(ComAidConfig config, const ontology::Ontology* onto,
              const std::vector<std::vector<std::string>>& extra_snippets);

  /// Copy pre-trained vectors into the embedding table for every word both
  /// vocabularies share (the §4.2 pretrain-and-refine handoff). Returns the
  /// number of rows initialised.
  size_t InitializeEmbeddings(const pretrain::WordEmbeddings& pretrained);

  /// Map tokens to model word ids (<unk> for out-of-vocabulary words).
  std::vector<text::WordId> MapTokens(const std::vector<std::string>& tokens) const;

  /// \brief Record the full encode-decode loss for one training example on
  /// `tape`: -log p(target | concept) (Eq. 10 summand). `target` must be
  /// non-empty and contain word ids only (no specials; <eos> is appended
  /// internally).
  nn::VarId BuildExampleLoss(nn::Tape& tape, ontology::ConceptId concept_id,
                             const std::vector<text::WordId>& target) const;

  /// \brief log p(q | c; Θ): teacher-forced log-likelihood of decoding the
  /// query from the concept (Eq. 3). Thread-safe after training. Reference
  /// tape-based path; inference scores through ScoreLogProbFastBatch.
  double ScoreLogProb(ontology::ConceptId concept_id,
                      const std::vector<std::string>& query_tokens) const;

  /// Tape-based ScoreLogProb over pre-mapped word ids (lets callers map the
  /// query once instead of once per candidate).
  double ScoreLogProbIds(ontology::ConceptId concept_id,
                         const std::vector<text::WordId>& target) const;

  /// Default lock-step width of the batched scorer: enough lanes to amortise
  /// the weight-matrix streaming, small enough that the per-step activation
  /// working set stays cache-resident.
  static constexpr size_t kDefaultScoreLanes = 32;

  /// \brief Tape-free log p(q | c; Θ) — the Phase II scorer: fill
  /// `lanes[i].log_prob` with log p(target_i | concept_i) for every lane.
  ///
  /// Builds no autodiff graph and reuses each concept's cached encoding, so
  /// the encoder runs once per concept instead of once per (query,
  /// candidate) pair. Stacks up to `max_lanes` candidates per decode step
  /// into one activation matrix, so the per-candidate mat-vecs become GemmNT
  /// calls over the shared LSTM/composite/softmax weights; one lane is
  /// simply a one-row tile. Ragged target lengths are masked by sorting
  /// lanes longest first and shrinking the active row prefix as short lanes
  /// emit <eos>. Every lane computes the same arithmetic in the same
  /// canonical reduction order, so results are bit-stable under any lane
  /// order, batch composition, or `max_lanes` (pinned by tests); parity
  /// with the tape path (ScoreLogProbIds) stays within 1e-5.
  ///
  /// Thread-safe under the same contract as ScoreLogProb; `ctx` supplies
  /// per-thread scratch (nullptr uses an internal thread_local).
  void ScoreLogProbFastBatch(BatchScoreLane* lanes, size_t num_lanes,
                             BatchInferenceContext* ctx = nullptr,
                             size_t max_lanes = kDefaultScoreLanes) const;

  /// \brief Eagerly fill the concept-encoding cache for the whole ontology
  /// (on `pool` when given). Returns the number of encodings computed.
  /// Optional: ScoreLogProbFastBatch fills the cache lazily per concept.
  size_t PrecomputeConceptEncodings(ThreadPool* pool = nullptr) const;

  /// Drop all cached concept encodings (they are recomputed on demand).
  void InvalidateConceptEncodings() const;

  /// \brief Record that parameter values changed (optimizer step, embedding
  /// initialisation, checkpoint load): bumps the weights version and
  /// invalidates the concept-encoding cache. Must not run concurrently with
  /// scoring.
  void NotifyWeightsChanged();

  /// Monotone counter of weight mutations (cache-coherency diagnostics).
  uint64_t weights_version() const {
    return weights_version_.load(std::memory_order_acquire);
  }

  /// Number of concepts currently in the encoding cache (tests/diagnostics).
  size_t num_cached_encodings() const { return encoding_cache_->NumCached(); }

  /// \brief Log-probability over the next word (softmax of Eq. 9) after
  /// decoding `prefix` from `concept_id`. Index eos_id() closes the
  /// sequence. Powers beam-search generation. Thread-safe after training.
  std::vector<double> NextWordLogProbs(
      ontology::ConceptId concept_id,
      const std::vector<text::WordId>& prefix) const;

  /// \brief The concept representation h_n^c (the encoder's final hidden
  /// state on the canonical description). Used by the Fig. 10 analysis.
  nn::Matrix EncodeConcept(ontology::ConceptId concept_id) const;

  /// \brief The embedding vector of an in-vocabulary word (copy).
  nn::Matrix WordVector(text::WordId id) const;

  /// The concept's canonical description pre-mapped to model word ids.
  const std::vector<text::WordId>& ConceptWords(ontology::ConceptId id) const {
    NCL_DCHECK(id > 0 && static_cast<size_t>(id) < concept_words_.size());
    return concept_words_[static_cast<size_t>(id)];
  }

  const text::Vocabulary& vocabulary() const { return vocab_; }
  const ComAidConfig& config() const { return config_; }
  const ontology::Ontology& onto() const { return *onto_; }
  nn::ParameterStore* params() { return &params_; }
  const nn::ParameterStore& params() const { return params_; }

  text::WordId bos_id() const { return bos_id_; }
  text::WordId eos_id() const { return eos_id_; }
  text::WordId unk_id() const { return unk_id_; }

 private:
  /// Encoder pass over a description; appends per-word hidden states to
  /// `states` and returns the final hidden state h_n.
  nn::VarId EncodeDescription(nn::Tape& tape,
                              const std::vector<text::WordId>& words,
                              std::vector<nn::VarId>* states) const;

  /// Shared forward: loss node for decoding `target` from `concept_id`.
  nn::VarId Forward(nn::Tape& tape, ontology::ConceptId concept_id,
                    const std::vector<text::WordId>& target) const;

  // --- Tape-free inference (comaid/inference.cc, batch_inference.cc) -----

  /// Row pointer into the embedding table.
  const float* EmbeddingRow(text::WordId word) const {
    return embeddings_->value.row_data(static_cast<size_t>(word));
  }

  /// Tape-free encoder pass filling `out` for one concept.
  void ComputeConceptEncoding(ontology::ConceptId concept_id,
                              ConceptEncoding* out) const;

  /// The cached encoding for `concept_id`, computing and installing it on a
  /// miss.
  const ConceptEncoding& EncodingFor(ontology::ConceptId concept_id) const;

  /// One lock-step tile of ScoreLogProbFastBatch (batch_inference.cc).
  void ScoreBatchTile(BatchScoreLane* lanes, size_t num_lanes,
                      BatchInferenceContext* ctx) const;

  ComAidConfig config_;
  const ontology::Ontology* onto_;
  text::Vocabulary vocab_;
  text::WordId bos_id_ = 0;
  text::WordId eos_id_ = 1;
  text::WordId unk_id_ = 2;

  nn::ParameterStore params_;
  nn::Parameter* embeddings_ = nullptr;  // V x d
  std::unique_ptr<nn::LstmCell> encoder_;
  std::unique_ptr<nn::LstmCell> decoder_;
  nn::Parameter* w_d_ = nullptr;  // d x (d * pieces)
  nn::Parameter* b_d_ = nullptr;  // d x 1
  nn::Parameter* w_s_ = nullptr;  // V x d
  nn::Parameter* b_s_ = nullptr;  // V x 1

  /// Concept descriptions pre-mapped to model word ids.
  std::vector<std::vector<text::WordId>> concept_words_;

  /// Memo of query-independent encoder work, lazily filled by the tape-free
  /// scorer and cleared by NotifyWeightsChanged().
  mutable std::unique_ptr<ConceptEncodingCache> encoding_cache_;
  std::atomic<uint64_t> weights_version_{0};
};

}  // namespace ncl::comaid
