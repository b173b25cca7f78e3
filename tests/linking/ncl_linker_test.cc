#include "linking/ncl_linker.h"

#include <gtest/gtest.h>

#include "comaid/trainer.h"

namespace ncl::linking {
namespace {

struct Fixture {
  ontology::Ontology onto;
  std::unique_ptr<comaid::ComAidModel> model;
  std::unique_ptr<CandidateGenerator> candidates;

  Fixture() {
    auto add = [&](const char* code, std::vector<std::string> desc,
                   const char* parent) {
      auto result = onto.AddConcept(code, std::move(desc), onto.FindByCode(parent));
      EXPECT_TRUE(result.ok());
      return *result;
    };
    add("D50", {"iron", "deficiency", "anemia"}, "ROOT");
    add("D50.0", {"iron", "deficiency", "anemia", "blood", "loss"}, "D50");
    add("D50.9", {"iron", "deficiency", "anemia", "unspecified"}, "D50");
    add("N18", {"chronic", "kidney", "disease"}, "ROOT");
    add("N18.5", {"chronic", "kidney", "disease", "stage", "5"}, "N18");
    add("N18.9", {"chronic", "kidney", "disease", "unspecified"}, "N18");

    std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>> aliases = {
        {onto.FindByCode("N18.5"), {"ckd", "5"}},
        {onto.FindByCode("N18.5"), {"kidney", "disease", "5"}},
        {onto.FindByCode("N18.9"), {"ckd", "nos"}},
        {onto.FindByCode("D50.0"), {"anemia", "blood", "loss"}},
        {onto.FindByCode("D50.9"), {"iron", "anemia", "nos"}},
    };
    std::vector<std::vector<std::string>> extra;
    for (auto& [id, tokens] : aliases) extra.push_back(tokens);

    comaid::ComAidConfig config;
    config.dim = 16;
    config.beta = 1;
    model = std::make_unique<comaid::ComAidModel>(config, &onto, extra);

    comaid::TrainConfig tc;
    tc.epochs = 15;
    comaid::ComAidTrainer trainer(tc);
    trainer.Train(model.get(), comaid::MakeTrainingPairs(*model, aliases));

    candidates = std::make_unique<CandidateGenerator>(onto, aliases);
  }
};

TEST(NclLinkerTest, LinksTrainedAlias) {
  Fixture f;
  NclConfig config;
  config.scoring_threads = 2;
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr, config);
  auto ranking = linker.Link({"ckd", "5"}, 3);
  ASSERT_FALSE(ranking.empty());
  EXPECT_EQ(f.onto.Get(ranking[0].concept_id).code, "N18.5");
}

TEST(NclLinkerTest, RejectsNonPositiveK) {
  // k is fixed at construction (the old set_k mutator raced with concurrent
  // Link calls and was removed); a zero k is a configuration bug, caught
  // loudly rather than returning silent empty rankings.
  Fixture f;
  NclConfig config;
  config.k = 0;
  EXPECT_DEATH(NclLinker(f.model.get(), f.candidates.get(), nullptr, config),
               "k must be positive");
}

TEST(NclLinkerTest, RankingScoresDescending) {
  Fixture f;
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr);
  auto ranking = linker.Link({"anemia", "blood", "loss"}, 5);
  for (size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_GE(ranking[i - 1].score, ranking[i].score);
  }
}

TEST(NclLinkerTest, DetailedTimingsPopulated) {
  Fixture f;
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr);
  PhaseTimings timings;
  auto scored = linker.LinkDetailed({"kidney", "disease", "5"}, &timings);
  EXPECT_FALSE(scored.empty());
  EXPECT_GT(timings.score_us, 0.0);
  EXPECT_GT(timings.retrieve_us, 0.0);
  EXPECT_GT(timings.total_us(), timings.score_us);
}

TEST(NclLinkerTest, LossIsNegLogProb) {
  Fixture f;
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr);
  auto scored = linker.LinkDetailed({"ckd", "5"});
  for (const auto& c : scored) {
    EXPECT_DOUBLE_EQ(c.loss, -c.log_prob);
    EXPECT_GT(c.loss, 0.0);
  }
}

TEST(NclLinkerTest, KCapsPhaseOneCandidates) {
  Fixture f;
  NclConfig config;
  config.k = 2;
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr, config);
  EXPECT_LE(linker.LinkDetailed({"anemia", "kidney"}).size(), 2u);
}

TEST(NclLinkerTest, SingleAndMultiThreadAgree) {
  Fixture f;
  NclConfig serial;
  serial.scoring_threads = 1;
  NclConfig parallel;
  parallel.scoring_threads = 4;
  NclLinker a(f.model.get(), f.candidates.get(), nullptr, serial);
  NclLinker b(f.model.get(), f.candidates.get(), nullptr, parallel);
  auto ra = a.LinkDetailed({"iron", "anemia", "nos"});
  auto rb = b.LinkDetailed({"iron", "anemia", "nos"});
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].concept_id, rb[i].concept_id);
    EXPECT_DOUBLE_EQ(ra[i].log_prob, rb[i].log_prob);
  }
}

TEST(NclLinkerTest, RemoveSharedWordsChangesScores) {
  Fixture f;
  NclConfig with;
  with.remove_shared_words = true;
  NclConfig without;
  without.remove_shared_words = false;
  NclLinker a(f.model.get(), f.candidates.get(), nullptr, with);
  NclLinker b(f.model.get(), f.candidates.get(), nullptr, without);
  // Query overlapping a description: Phase II targets differ.
  auto ra = a.LinkDetailed({"iron", "deficiency", "anemia", "extra"});
  auto rb = b.LinkDetailed({"iron", "deficiency", "anemia", "extra"});
  ASSERT_FALSE(ra.empty());
  ASSERT_FALSE(rb.empty());
  bool any_different = false;
  for (const auto& ca : ra) {
    for (const auto& cb : rb) {
      if (ca.concept_id == cb.concept_id && ca.log_prob != cb.log_prob) {
        any_different = true;
      }
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(NclLinkerTest, MapPriorReordersCandidates) {
  // Eq. 11: a strong prior on a non-top candidate must be able to lift it.
  Fixture f;
  NclConfig mle;
  NclLinker base(f.model.get(), f.candidates.get(), nullptr, mle);
  auto baseline = base.LinkDetailed({"ckd", "5"});
  ASSERT_GE(baseline.size(), 2u);
  ontology::ConceptId runner_up = baseline[1].concept_id;

  NclConfig map = mle;
  map.concept_prior[runner_up] = 1.0;   // overwhelming prior mass
  map.default_prior = 1e-12;
  NclLinker map_linker(f.model.get(), f.candidates.get(), nullptr, map);
  auto reranked = map_linker.LinkDetailed({"ckd", "5"});
  ASSERT_FALSE(reranked.empty());
  EXPECT_EQ(reranked[0].concept_id, runner_up);
}

TEST(NclLinkerTest, UniformPriorMatchesMle) {
  Fixture f;
  NclConfig mle;
  NclConfig uniform;
  for (auto id : f.onto.FineGrainedConcepts()) uniform.concept_prior[id] = 0.25;
  NclLinker a(f.model.get(), f.candidates.get(), nullptr, mle);
  NclLinker b(f.model.get(), f.candidates.get(), nullptr, uniform);
  auto ra = a.LinkDetailed({"ckd", "5"});
  auto rb = b.LinkDetailed({"ckd", "5"});
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].concept_id, rb[i].concept_id);  // same order under Eq. 12
  }
}

TEST(NclLinkerTest, NoCandidatesYieldsEmptyRanking) {
  Fixture f;
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr);
  EXPECT_TRUE(linker.Link({"xylophone"}, 3).empty());
}

TEST(NclLinkerTest, BatchedEdInvariantToLaneWidthAndThreads) {
  // Each query overlaps all four fine-grained concepts' descriptions, so
  // nine queries give 36 > 32 lanes: the pooled pass splits into two
  // lock-step tiles and a 4-thread linker scores them through
  // ThreadPool::ParallelFor. Scores must match the single-threaded pass and
  // each query linked alone (one narrower tile) bit for bit.
  Fixture f;
  const std::vector<std::vector<std::string>> queries = {
      {"iron", "deficiency", "anemia", "chronic", "kidney", "disease"},
      {"chronic", "kidney", "disease", "stage", "5", "anemia"},
      {"iron", "anemia", "kidney", "unspecified"},
      {"ckd", "kidney", "iron", "blood", "loss"},
      {"deficiency", "kidney", "anemia"},
      {"chronic", "iron", "disease", "nos"},
      {"anemia", "disease"},
      {"kidney", "anemia", "5"},
      {"iron", "chronic", "blood", "loss"}};
  NclConfig serial;
  serial.scoring_threads = 1;
  NclConfig parallel;
  parallel.scoring_threads = 4;
  NclLinker reference(f.model.get(), f.candidates.get(), nullptr, serial);
  NclLinker threaded(f.model.get(), f.candidates.get(), nullptr, parallel);
  auto expected = reference.LinkBatchDetailed(queries);
  auto got = threaded.LinkBatchDetailed(queries);

  size_t lanes = 0;
  for (const auto& ranking : expected) lanes += ranking.size();
  ASSERT_GT(lanes, comaid::ComAidModel::kDefaultScoreLanes);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    auto alone = reference.LinkDetailed(queries[q]);
    ASSERT_EQ(got[q].size(), expected[q].size()) << "query " << q;
    ASSERT_EQ(alone.size(), expected[q].size()) << "query " << q;
    for (size_t i = 0; i < expected[q].size(); ++i) {
      EXPECT_EQ(got[q][i].concept_id, expected[q][i].concept_id)
          << "query " << q;
      EXPECT_EQ(got[q][i].log_prob, expected[q][i].log_prob) << "query " << q;
      EXPECT_EQ(alone[i].concept_id, expected[q][i].concept_id)
          << "query " << q;
      EXPECT_EQ(alone[i].log_prob, expected[q][i].log_prob) << "query " << q;
    }
  }
}

TEST(NclLinkerTest, LinkBatchDetailedMatchesSequentialLinkDetailed) {
  Fixture f;
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr);
  std::vector<std::vector<std::string>> queries = {
      {"ckd", "5"},
      {"iron", "anemia", "nos"},
      {},
      {"anemia", "blood", "loss"},
      {"xylophone"}};  // no candidates: empty per-query result
  std::vector<PhaseTimings> timings;
  auto batch = linker.LinkBatchDetailed(queries, &timings);
  ASSERT_EQ(batch.size(), queries.size());
  ASSERT_EQ(timings.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    auto expected = linker.LinkDetailed(queries[q]);
    ASSERT_EQ(batch[q].size(), expected.size()) << "query " << q;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(batch[q][i].concept_id, expected[i].concept_id);
      EXPECT_EQ(batch[q][i].log_prob, expected[i].log_prob);
      EXPECT_EQ(batch[q][i].loss, expected[i].loss);
    }
  }
  EXPECT_TRUE(batch[4].empty());
}

TEST(NclLinkerTest, LinkBatchDetailedEmptyAndPriorPostPass) {
  Fixture f;
  // The shared post-pass (length normalisation + MAP prior) must apply in
  // the batched path too.
  NclConfig config;
  config.length_normalize = true;
  config.concept_prior[f.onto.FindByCode("N18.9")] = 1.0;
  config.default_prior = 1e-12;
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr, config);

  EXPECT_TRUE(linker.LinkBatchDetailed({}).empty());

  auto batch = linker.LinkBatchDetailed({{"ckd", "5"}});
  auto expected = linker.LinkDetailed({"ckd", "5"});
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_EQ(batch[0].size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(batch[0][i].concept_id, expected[i].concept_id);
    EXPECT_EQ(batch[0][i].log_prob, expected[i].log_prob);
  }
}

}  // namespace
}  // namespace ncl::linking
