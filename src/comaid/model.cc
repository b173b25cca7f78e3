#include "comaid/model.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "util/logging.h"

namespace ncl::comaid {

std::string VariantName(const ComAidConfig& config) {
  if (config.text_attention && config.structural_attention) return "COM-AID";
  if (config.text_attention) return "COM-AID-c";
  if (config.structural_attention) return "COM-AID-w";
  return "COM-AID-wc";
}

ComAidModel::ComAidModel(ComAidConfig config, const ontology::Ontology* onto,
                         const std::vector<std::vector<std::string>>& extra_snippets)
    : config_(config), onto_(onto) {
  NCL_CHECK(onto_ != nullptr);
  NCL_CHECK(config_.dim > 0);
  NCL_CHECK(config_.beta >= 0);
  NCL_CHECK(!config_.structural_attention || config_.beta > 0)
      << "structural attention needs beta >= 1";

  bos_id_ = vocab_.Add(kBos);
  eos_id_ = vocab_.Add(kEos);
  unk_id_ = vocab_.Add(kUnk);
  for (ontology::ConceptId id : onto_->AllConcepts()) {
    for (const auto& word : onto_->Get(id).description) vocab_.Add(word);
  }
  for (const auto& snippet : extra_snippets) {
    for (const auto& word : snippet) vocab_.Add(word);
  }

  Rng rng(config_.seed);
  const size_t d = config_.dim;
  const size_t v = vocab_.size();
  embeddings_ = params_.Create("embeddings", v, d, nn::Init::kSmallUniform, rng);
  encoder_ = std::make_unique<nn::LstmCell>("encoder", d, d, &params_, rng);
  decoder_ = std::make_unique<nn::LstmCell>("decoder", d, d, &params_, rng);

  size_t pieces = 1;  // s_t is always part of the composite vector
  if (config_.text_attention) ++pieces;
  if (config_.structural_attention) ++pieces;
  w_d_ = params_.Create("W_d", d, d * pieces, nn::Init::kXavier, rng);
  b_d_ = params_.Create("b_d", d, 1, nn::Init::kZero, rng);
  w_s_ = params_.Create("W_s", v, d, nn::Init::kXavier, rng);
  b_s_ = params_.Create("b_s", v, 1, nn::Init::kZero, rng);

  // Pre-map every concept description to word ids (all in-vocabulary).
  concept_words_.resize(onto_->size());
  for (ontology::ConceptId id : onto_->AllConcepts()) {
    concept_words_[static_cast<size_t>(id)] = MapTokens(onto_->Get(id).description);
  }

  encoding_cache_ = std::make_unique<ConceptEncodingCache>(onto_->size());
}

size_t ComAidModel::InitializeEmbeddings(const pretrain::WordEmbeddings& pretrained) {
  NCL_CHECK(pretrained.dim() == config_.dim)
      << "pretrained embedding width " << pretrained.dim()
      << " != model dim " << config_.dim;
  size_t initialised = 0;
  for (size_t i = 0; i < vocab_.size(); ++i) {
    auto id = static_cast<text::WordId>(i);
    text::WordId src = pretrained.vocabulary().Lookup(vocab_.WordOf(id));
    if (src == text::Vocabulary::kUnknown) continue;
    const float* vec = pretrained.VectorOf(src);
    float* dst = embeddings_->value.row_data(i);
    for (size_t c = 0; c < config_.dim; ++c) dst[c] = vec[c];
    ++initialised;
  }
  NotifyWeightsChanged();
  return initialised;
}

std::vector<text::WordId> ComAidModel::MapTokens(
    const std::vector<std::string>& tokens) const {
  std::vector<text::WordId> ids;
  ids.reserve(tokens.size());
  for (const auto& token : tokens) {
    text::WordId id = vocab_.Lookup(token);
    ids.push_back(id == text::Vocabulary::kUnknown ? unk_id_ : id);
  }
  return ids;
}

nn::VarId ComAidModel::EncodeDescription(nn::Tape& tape,
                                         const std::vector<text::WordId>& words,
                                         std::vector<nn::VarId>* states) const {
  NCL_DCHECK(!words.empty());
  nn::LstmState state = encoder_->InitialState(tape);
  for (text::WordId word : words) {
    nn::VarId x = tape.Lookup(embeddings_, static_cast<size_t>(word));
    state = encoder_->Step(tape, x, state);
    if (states != nullptr) states->push_back(state.h);
  }
  return state.h;
}

nn::VarId ComAidModel::Forward(nn::Tape& tape, ontology::ConceptId concept_id,
                               const std::vector<text::WordId>& target) const {
  NCL_CHECK(concept_id > 0 &&
            static_cast<size_t>(concept_id) < concept_words_.size())
      << "invalid concept id " << concept_id;
  // An empty target is legal and decodes only <eos>: p(empty | c). The
  // online linker produces it when every query word is shared with the
  // candidate's canonical description (§5 Phase II).

  // --- Encode the canonical description (§4.1.1). ---
  std::vector<nn::VarId> encoder_states;
  const auto& words = concept_words_[static_cast<size_t>(concept_id)];
  nn::VarId concept_repr = EncodeDescription(tape, words, &encoder_states);

  // --- Encode the structural context (Def. 4.1) with shared weights. ---
  std::vector<nn::VarId> ancestor_reprs;
  if (config_.structural_attention) {
    std::unordered_map<ontology::ConceptId, nn::VarId> cache;
    for (ontology::ConceptId anc : onto_->AncestorContext(concept_id, config_.beta)) {
      auto it = cache.find(anc);
      if (it == cache.end()) {
        nn::VarId repr = EncodeDescription(
            tape, concept_words_[static_cast<size_t>(anc)], nullptr);
        it = cache.emplace(anc, repr).first;
      }
      ancestor_reprs.push_back(it->second);
    }
  }

  // --- Decode the target with the duet decoder (§4.1.2). ---
  nn::LstmState state = decoder_->InitialStateFromHidden(tape, concept_repr);
  std::vector<nn::VarId> losses;
  losses.reserve(target.size() + 1);

  text::WordId prev_word = bos_id_;
  for (size_t t = 0; t <= target.size(); ++t) {
    nn::VarId x = tape.Lookup(embeddings_, static_cast<size_t>(prev_word));
    state = decoder_->Step(tape, x, state);

    std::vector<nn::VarId> composite{state.h};
    if (config_.text_attention) {
      composite.push_back(tape.Attention(encoder_states, state.h));
    }
    if (config_.structural_attention) {
      composite.push_back(tape.Attention(ancestor_reprs, state.h));
    }

    nn::VarId merged =
        composite.size() == 1 ? composite[0] : tape.ConcatRows(composite);
    nn::VarId s_tilde = tape.Tanh(
        tape.Add(tape.MatMul(tape.Param(w_d_), merged), tape.Param(b_d_)));
    nn::VarId logits =
        tape.Add(tape.MatMul(tape.Param(w_s_), s_tilde), tape.Param(b_s_));

    // Decode target[t], with <eos> closing the sequence.
    text::WordId gold = t < target.size() ? target[t] : eos_id_;
    losses.push_back(tape.SoftmaxCrossEntropy(logits, gold));
    prev_word = gold;
  }
  return tape.AddScalars(losses);
}

nn::VarId ComAidModel::BuildExampleLoss(nn::Tape& tape,
                                        ontology::ConceptId concept_id,
                                        const std::vector<text::WordId>& target) const {
  return Forward(tape, concept_id, target);
}

double ComAidModel::ScoreLogProb(ontology::ConceptId concept_id,
                                 const std::vector<std::string>& query_tokens) const {
  return ScoreLogProbIds(concept_id, MapTokens(query_tokens));
}

double ComAidModel::ScoreLogProbIds(ontology::ConceptId concept_id,
                                    const std::vector<text::WordId>& target) const {
  nn::Tape tape;
  nn::VarId loss = Forward(tape, concept_id, target);
  return -static_cast<double>(tape.Value(loss)[0]);
}

std::vector<double> ComAidModel::NextWordLogProbs(
    ontology::ConceptId concept_id, const std::vector<text::WordId>& prefix) const {
  NCL_CHECK(concept_id > 0 &&
            static_cast<size_t>(concept_id) < concept_words_.size());
  nn::Tape tape;

  // Mirror of Forward() up to the step after `prefix`.
  std::vector<nn::VarId> encoder_states;
  const auto& words = concept_words_[static_cast<size_t>(concept_id)];
  nn::VarId concept_repr = EncodeDescription(tape, words, &encoder_states);

  std::vector<nn::VarId> ancestor_reprs;
  if (config_.structural_attention) {
    std::unordered_map<ontology::ConceptId, nn::VarId> cache;
    for (ontology::ConceptId anc : onto_->AncestorContext(concept_id, config_.beta)) {
      auto it = cache.find(anc);
      if (it == cache.end()) {
        nn::VarId repr = EncodeDescription(
            tape, concept_words_[static_cast<size_t>(anc)], nullptr);
        it = cache.emplace(anc, repr).first;
      }
      ancestor_reprs.push_back(it->second);
    }
  }

  nn::LstmState state = decoder_->InitialStateFromHidden(tape, concept_repr);
  text::WordId prev_word = bos_id_;
  nn::VarId logits = nn::kInvalidVar;
  for (size_t t = 0; t <= prefix.size(); ++t) {
    nn::VarId x = tape.Lookup(embeddings_, static_cast<size_t>(prev_word));
    state = decoder_->Step(tape, x, state);
    std::vector<nn::VarId> composite{state.h};
    if (config_.text_attention) {
      composite.push_back(tape.Attention(encoder_states, state.h));
    }
    if (config_.structural_attention) {
      composite.push_back(tape.Attention(ancestor_reprs, state.h));
    }
    nn::VarId merged =
        composite.size() == 1 ? composite[0] : tape.ConcatRows(composite);
    nn::VarId s_tilde = tape.Tanh(
        tape.Add(tape.MatMul(tape.Param(w_d_), merged), tape.Param(b_d_)));
    logits = tape.Add(tape.MatMul(tape.Param(w_s_), s_tilde), tape.Param(b_s_));
    if (t < prefix.size()) prev_word = prefix[t];
  }

  // Log-softmax over the final logits.
  const nn::Matrix& z = tape.Value(logits);
  double max_logit = z[0];
  for (size_t i = 1; i < z.size(); ++i) max_logit = std::max<double>(max_logit, z[i]);
  double denom = 0.0;
  for (size_t i = 0; i < z.size(); ++i) denom += std::exp(z[i] - max_logit);
  double log_denom = std::log(denom) + max_logit;
  std::vector<double> log_probs(z.size());
  for (size_t i = 0; i < z.size(); ++i) log_probs[i] = z[i] - log_denom;
  return log_probs;
}

nn::Matrix ComAidModel::EncodeConcept(ontology::ConceptId concept_id) const {
  NCL_CHECK(concept_id > 0 &&
            static_cast<size_t>(concept_id) < concept_words_.size());
  nn::Tape tape;
  nn::VarId repr =
      EncodeDescription(tape, concept_words_[static_cast<size_t>(concept_id)], nullptr);
  return tape.Value(repr);
}

nn::Matrix ComAidModel::WordVector(text::WordId id) const {
  NCL_CHECK(id >= 0 && static_cast<size_t>(id) < vocab_.size());
  nn::Matrix vec(config_.dim, 1);
  const float* src = embeddings_->value.row_data(static_cast<size_t>(id));
  for (size_t c = 0; c < config_.dim; ++c) vec[c] = src[c];
  return vec;
}

}  // namespace ncl::comaid
