#include "setup.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <unordered_set>

#include "comaid/trainer.h"
#include "datagen/medical_vocabulary.h"
#include "datagen/query_generator.h"
#include "pretrain/cbow.h"
#include "pretrain/concept_injection.h"
#include "util/random.h"

namespace nclbench {

using namespace ncl;

std::unique_ptr<Corpus> BuildCorpus(CorpusKind kind, size_t dim) {
  auto corpus = std::make_unique<Corpus>();
  corpus->dim = dim;

  datagen::DatasetConfig data_config;
  data_config.scale = kCorpusScale;
  data_config.num_query_groups = 0;  // traffic is generated per run
  data_config.notes_per_concept = 12;
  data_config.seed = kCorpusSeed;
  corpus->data = kind == CorpusKind::kHospitalX
                     ? datagen::MakeHospitalX(data_config)
                     : datagen::MakeMimicIII(data_config);
  for (const auto& snippet : corpus->data.labeled) {
    corpus->aliases.emplace_back(snippet.concept_id, snippet.tokens);
  }

  // Pre-training (§4.2): unlabeled notes plus concept-injected aliases.
  std::vector<std::vector<std::string>> text = corpus->data.unlabeled;
  for (const auto& snippet : corpus->data.labeled) {
    text.push_back(pretrain::InjectConceptId(
        snippet.tokens, corpus->data.onto.Get(snippet.concept_id).code));
  }
  pretrain::CbowConfig cbow;
  cbow.dim = dim;
  cbow.epochs = 4;
  cbow.window = 10;
  cbow.negatives = 10;
  cbow.learning_rate = 0.05;
  cbow.seed = kCorpusSeed + 5;
  corpus->embeddings = pretrain::TrainCbow(text, cbow);

  linking::CandidateGeneratorConfig cg_config;
  cg_config.index_aliases = false;  // §5 matches canonical descriptions
  corpus->candidates = std::make_shared<linking::CandidateGenerator>(
      corpus->data.onto, corpus->aliases, cg_config);
  corpus->rewriter = std::make_shared<linking::QueryRewriter>(
      corpus->candidates->vocabulary(), corpus->embeddings);
  return corpus;
}

std::shared_ptr<const comaid::ComAidModel> TrainModel(const Corpus& corpus,
                                                      size_t epochs,
                                                      uint64_t model_seed,
                                                      double pair_share) {
  comaid::ComAidConfig config;
  config.dim = corpus.dim;
  config.beta = 2;
  config.seed = model_seed;
  std::vector<std::vector<std::string>> extra;
  extra.reserve(corpus.aliases.size());
  for (const auto& [id, tokens] : corpus.aliases) extra.push_back(tokens);
  auto model = std::make_shared<comaid::ComAidModel>(config, &corpus.data.onto,
                                                     extra);
  model->InitializeEmbeddings(corpus.embeddings);

  comaid::TrainConfig train;
  train.epochs = epochs;
  train.shuffle_seed = model_seed + 4;
  comaid::ComAidTrainer trainer(train);
  std::vector<comaid::TrainingPair> pairs =
      comaid::MakeResidualAugmentedPairs(*model, corpus.aliases);
  if (pair_share < 1.0) {
    std::mt19937_64 rng(model_seed);
    std::shuffle(pairs.begin(), pairs.end(), rng);
    pairs.resize(std::max<size_t>(
        1, static_cast<size_t>(std::lround(pair_share * static_cast<double>(pairs.size())))));
  }
  trainer.Train(model.get(), pairs);
  model->PrecomputeConceptEncodings();
  return model;
}

std::vector<Query> GenerateQueries(const Corpus& corpus, size_t count, uint64_t seed) {
  constexpr size_t kChunk = 512;
  datagen::QueryGeneratorConfig config;
  config.group_size = kChunk;
  config.purposive_per_group = kChunk / 6;
  config.seed = seed;
  datagen::QueryGenerator generator(corpus.data.onto,
                                    datagen::DefaultMedicalVocabulary(), config);
  Rng rng(seed);
  std::vector<Query> queries;
  queries.reserve(count);
  std::unordered_set<std::string> seen;
  // A generator that stops producing new token sequences ends the search:
  // after this many chunks without growth the pool is as distinct as it gets.
  size_t stale_chunks = 0;
  while (queries.size() < count && stale_chunks < 4) {
    const size_t before = queries.size();
    for (auto& labeled : generator.GenerateGroup({}, rng)) {
      if (queries.size() == count) break;
      if (labeled.tokens.empty()) continue;
      std::string key;
      for (const auto& token : labeled.tokens) key.append(token).push_back(' ');
      if (!seen.insert(std::move(key)).second) continue;
      queries.push_back(Query{std::move(labeled.tokens), labeled.concept_id});
    }
    stale_chunks = queries.size() == before ? stale_chunks + 1 : 0;
  }
  return queries;
}

}  // namespace nclbench
