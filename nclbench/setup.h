// Building what the benchmark serves: a synthetic corpus, its pre-trained
// embeddings and Phase-I components, and COM-AID models trained on it.
//
// The corpus and model seeds are fixed, so every run serves the same models;
// the benchmark's --seed only changes the generated traffic (queries and
// arrival times). Everything here but GenerateQueries is set-up time,
// counted in `setup_s`.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comaid/model.h"
#include "datagen/dataset.h"
#include "linking/candidate_generator.h"
#include "linking/query_rewriter.h"
#include "pretrain/embeddings.h"

namespace nclbench {

/// Which dataset substitute a tenant serves.
enum class CorpusKind { kHospitalX, kMimicIII };

/// Dataset scale of every corpus (hospital-x: 40 concepts, MIMIC-III: 29).
inline constexpr double kCorpusScale = 0.35;
/// Seed of every corpus; model seeds are derived from it.
inline constexpr uint64_t kCorpusSeed = 2018;

/// A corpus with its Phase-I components. Heap-only: the model, index and
/// rewriter keep pointers into `data` and `embeddings`.
struct Corpus {
  size_t dim = 0;  ///< embedding width d
  ncl::datagen::Dataset data;
  std::vector<std::pair<ncl::ontology::ConceptId, std::vector<std::string>>>
      aliases;
  ncl::pretrain::WordEmbeddings embeddings;
  std::shared_ptr<const ncl::linking::CandidateGenerator> candidates;
  std::shared_ptr<const ncl::linking::QueryRewriter> rewriter;
};

/// Synthesize the dataset, pre-train d = `dim` embeddings, build the TF-IDF
/// index and the query rewriter. Deterministic.
std::unique_ptr<Corpus> BuildCorpus(CorpusKind kind, size_t dim);

/// Train a COM-AID model on `corpus` (deterministic for a given seed) and
/// precompute every concept encoding, so it is warm before it serves.
/// `pair_share` < 1 trains on a seeded subset of that share of the pairs.
std::shared_ptr<const ncl::comaid::ComAidModel> TrainModel(
    const Corpus& corpus, size_t epochs, uint64_t model_seed, double pair_share = 1.0);

/// One labeled query.
struct Query {
  std::vector<std::string> tokens;
  ncl::ontology::ConceptId gold = 0;
};

/// Up to `count` distinct labeled queries over the corpus's fine-grained
/// concepts, drawn with the query generator seeded by `seed`; fewer when the
/// generator stops yielding new token sequences.
std::vector<Query> GenerateQueries(const Corpus& corpus, size_t count, uint64_t seed);

}  // namespace nclbench
