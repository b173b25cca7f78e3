// SnapshotRegistry / NclSnapshot tests, including the concurrency stress
// the snapshot design exists for: COM-AID weights being retrained (and the
// concept-encoding cache being invalidated) *while* other threads score
// through the tape-free scorer. Pre-snapshot, that was a documented data race
// (NotifyWeightsChanged clears the cache under live readers); with
// snapshots, mutation only ever touches a model no scorer can see yet, and
// publication is an atomic pointer swap. Run under -fsanitize=thread (the
// `tsan` preset / CI job) to pin the absence of the race.

#include "serve/model_snapshot.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "comaid/trainer.h"
#include "linking/candidate_generator.h"

namespace ncl::serve {
namespace {

ontology::Ontology MakeOntology() {
  ontology::Ontology onto;
  auto add = [&](const char* code, std::vector<std::string> desc,
                 const char* parent) {
    auto result = onto.AddConcept(code, std::move(desc), onto.FindByCode(parent));
    EXPECT_TRUE(result.ok());
    return *result;
  };
  add("D50", {"iron", "deficiency", "anemia"}, "ROOT");
  add("D50.0", {"iron", "deficiency", "anemia", "blood", "loss", "chronic"}, "D50");
  add("D53", {"other", "nutritional", "anemias"}, "ROOT");
  add("D53.1", {"megaloblastic", "anemia"}, "D53");
  add("D62", {"acute", "blood", "loss", "anemia"}, "ROOT");
  return onto;
}

const std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>>&
Aliases(const ontology::Ontology& onto) {
  static const auto* aliases = new std::vector<
      std::pair<ontology::ConceptId, std::vector<std::string>>>{
      {onto.FindByCode("D50.0"), {"anemia", "blood", "loss"}},
      {onto.FindByCode("D53.1"), {"megaloblastic", "anemia", "nos"}},
      {onto.FindByCode("D62"), {"acute", "hemorrhagic", "anemia"}},
  };
  return *aliases;
}

/// A freshly trained model over `onto`. All weight mutation (training,
/// cache invalidation) happens here, before the model is ever published.
std::shared_ptr<const comaid::ComAidModel> TrainModel(
    const ontology::Ontology& onto, size_t epochs, uint64_t seed) {
  comaid::ComAidConfig config;
  config.dim = 12;
  config.beta = 1;
  config.seed = seed;
  std::vector<std::vector<std::string>> extra;
  for (const auto& [id, tokens] : Aliases(onto)) extra.push_back(tokens);
  auto model = std::make_shared<comaid::ComAidModel>(config, &onto, extra);
  comaid::TrainConfig tc;
  tc.epochs = epochs;
  comaid::ComAidTrainer trainer(tc);
  trainer.Train(model.get(), comaid::MakeTrainingPairs(*model, Aliases(onto)));
  return model;
}

TEST(SnapshotRegistryTest, CurrentIsNullBeforeFirstPublish) {
  SnapshotRegistry registry;
  EXPECT_EQ(registry.Current(), nullptr);
  EXPECT_EQ(registry.current_version(), 0u);
}

TEST(SnapshotRegistryTest, PublishAssignsMonotoneVersions) {
  ontology::Ontology onto = MakeOntology();
  auto candidates = std::make_shared<const linking::CandidateGenerator>(
      onto, Aliases(onto));
  auto model = TrainModel(onto, 1, 1);

  SnapshotRegistry registry;
  EXPECT_EQ(registry.Publish(std::make_shared<NclSnapshot>(model, candidates,
                                                           nullptr)),
            1u);
  EXPECT_EQ(registry.current_version(), 1u);
  EXPECT_EQ(registry.Publish(std::make_shared<NclSnapshot>(model, candidates,
                                                           nullptr)),
            2u);
  EXPECT_EQ(registry.current_version(), 2u);
  EXPECT_EQ(registry.Current()->version(), 2u);
}

TEST(SnapshotRegistryTest, PinnedSnapshotSurvivesPublish) {
  ontology::Ontology onto = MakeOntology();
  auto candidates = std::make_shared<const linking::CandidateGenerator>(
      onto, Aliases(onto));
  SnapshotRegistry registry;
  registry.Publish(
      std::make_shared<NclSnapshot>(TrainModel(onto, 1, 1), candidates, nullptr));

  std::shared_ptr<const ModelSnapshot> pinned = registry.Current();
  registry.Publish(
      std::make_shared<NclSnapshot>(TrainModel(onto, 1, 2), candidates, nullptr));

  // The old snapshot is gone from the registry but still fully usable.
  EXPECT_EQ(pinned->version(), 1u);
  auto ranked = pinned->Link({"anemia", "blood", "loss"});
  EXPECT_FALSE(ranked.empty());
  EXPECT_EQ(registry.Current()->version(), 2u);
}

TEST(SnapshotRegistryTest, WarmCacheFillsEveryConceptBeforePublish) {
  ontology::Ontology onto = MakeOntology();
  auto candidates = std::make_shared<const linking::CandidateGenerator>(
      onto, Aliases(onto));
  auto model = TrainModel(onto, 1, 3);
  auto snapshot = std::make_shared<NclSnapshot>(
      model, candidates, nullptr, NclSnapshot::MakeServingConfig(),
      /*warm_cache=*/true);
  EXPECT_GT(model->num_cached_encodings(), 0u);
}

// The pruned ngram candidate path must be a drop-in behind the snapshot:
// same NclSnapshot wiring, same Link surface, but candidate generation
// goes through the char-ngram inverted index — including for queries whose
// misspelled words the token path cannot match at all.
TEST(SnapshotRegistryTest, NgramCandidatePathServesThroughSnapshot) {
  ontology::Ontology onto = MakeOntology();
  linking::CandidateGeneratorConfig cg_config;
  cg_config.use_ngram_index = true;
  auto candidates = std::make_shared<const linking::CandidateGenerator>(
      onto, Aliases(onto), cg_config);
  ASSERT_NE(candidates->ngram_index(), nullptr);

  SnapshotRegistry registry;
  registry.Publish(std::make_shared<NclSnapshot>(TrainModel(onto, 1, 7),
                                                 candidates, nullptr));
  std::shared_ptr<const ModelSnapshot> snapshot = registry.Current();

  auto ranked = snapshot->Link({"megaloblastic", "anemia"});
  ASSERT_FALSE(ranked.empty());
  for (const auto& c : ranked) EXPECT_TRUE(std::isfinite(c.log_prob));

  // "anemai" only matches through char grams; the serve path must still
  // produce candidates for it.
  auto typo = snapshot->Link({"megaloblastic", "anemai"});
  EXPECT_FALSE(typo.empty());
}

/// Minimal snapshot overriding only Link — stands in for every test fake
/// that predates LinkBatchTraced.
class MiniSnapshot : public ModelSnapshot {
 public:
  std::vector<linking::ScoredCandidate> Link(
      const std::vector<std::string>& query) const override {
    return {linking::ScoredCandidate{
        static_cast<ontology::ConceptId>(query.size()), -1.0, 1.0}};
  }
};

TEST(ModelSnapshotTest, LinkBatchTracedDefaultsToLinkBatchWithZeroTimings) {
  MiniSnapshot snapshot;
  const std::vector<std::vector<std::string>> queries = {
      {"anemia"}, {"blood", "loss"}, {"iron", "deficiency", "anemia"}};
  std::vector<linking::PhaseTimings> timings;
  const uint64_t flow_ids[] = {5, 9, 13};  // ignored by the base default
  auto traced = snapshot.LinkBatchTraced(queries, flow_ids, &timings);
  auto plain = snapshot.LinkBatch(queries);

  ASSERT_EQ(traced.size(), plain.size());
  for (size_t q = 0; q < traced.size(); ++q) {
    ASSERT_EQ(traced[q].size(), plain[q].size());
    EXPECT_EQ(traced[q][0].concept_id, plain[q][0].concept_id);
  }
  // The base default cannot measure phases: zero-filled, one per query.
  ASSERT_EQ(timings.size(), queries.size());
  for (const linking::PhaseTimings& t : timings) {
    EXPECT_DOUBLE_EQ(t.total_us(), 0.0);
  }
  // Null out-params are fine too.
  EXPECT_EQ(snapshot.LinkBatchTraced(queries, nullptr, nullptr).size(),
            queries.size());
}

TEST(ModelSnapshotTest, NclSnapshotLinkBatchTracedSurfacesPhaseTimings) {
  ontology::Ontology onto = MakeOntology();
  auto candidates = std::make_shared<const linking::CandidateGenerator>(
      onto, Aliases(onto));
  NclSnapshot snapshot(TrainModel(onto, 1, 21), candidates, nullptr);

  const std::vector<std::vector<std::string>> queries = {
      {"megaloblastic", "anemia"}, {"acute", "blood", "loss"}};
  std::vector<linking::PhaseTimings> timings;
  auto ranked = snapshot.LinkBatchTraced(queries, nullptr, &timings);
  ASSERT_EQ(ranked.size(), queries.size());
  ASSERT_EQ(timings.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_FALSE(ranked[q].empty());
    // A real scoring pass spent measurable time somewhere.
    EXPECT_GT(timings[q].total_us(), 0.0);
  }
}

// The stress: scorers hammer Link through pinned snapshots while a
// publisher trains fresh models (weight mutation + cache invalidation) and
// swaps them in. Without snapshots this is the Clear-under-readers race;
// with them TSan must stay silent and every score must be finite. Before
// each publish the publisher waits until every scorer has scored again, so
// each swap lands while all scorers are live, however the threads are
// scheduled.
TEST(SnapshotRegistryTest, RetrainAndPublishUnderConcurrentScoring) {
  ontology::Ontology onto = MakeOntology();
  auto candidates = std::make_shared<const linking::CandidateGenerator>(
      onto, Aliases(onto));
  SnapshotRegistry registry;
  registry.Publish(
      std::make_shared<NclSnapshot>(TrainModel(onto, 1, 10), candidates, nullptr));

  constexpr int kScorers = 4;
  constexpr int kPublishes = 3;
  std::atomic<bool> done{false};
  std::array<std::atomic<uint64_t>, kScorers> scored_by{};
  std::atomic<bool> saw_bad_score{false};

  std::vector<std::thread> scorers;
  for (int t = 0; t < kScorers; ++t) {
    scorers.emplace_back([&, t] {
      const std::vector<std::string> query{"acute", "blood", "loss"};
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const ModelSnapshot> snapshot = registry.Current();
        auto ranked = snapshot->Link(query);
        if (ranked.empty() || !std::isfinite(ranked.front().log_prob)) {
          saw_bad_score.store(true, std::memory_order_relaxed);
        }
        scored_by[t].fetch_add(1, std::memory_order_release);
      }
    });
  }

  // Publisher: every iteration retrains a *fresh* model (all mutation and
  // NotifyWeightsChanged cache clears happen pre-publish), waits for every
  // scorer to finish another Link, and swaps the model in while the scorers
  // are mid-flight.
  std::array<uint64_t, kScorers> seen{};
  for (int p = 0; p < kPublishes; ++p) {
    auto next = std::make_shared<NclSnapshot>(
        TrainModel(onto, 2, 100 + static_cast<uint64_t>(p)), candidates,
        nullptr);
    for (int t = 0; t < kScorers; ++t) {
      while (scored_by[t].load(std::memory_order_acquire) == seen[t]) {
        std::this_thread::yield();
      }
      seen[t] = scored_by[t].load(std::memory_order_acquire);
    }
    registry.Publish(std::move(next));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : scorers) t.join();

  uint64_t scored = 0;
  for (const auto& count : scored_by) scored += count.load();
  EXPECT_FALSE(saw_bad_score.load());
  EXPECT_GT(scored, 0u);
  EXPECT_EQ(registry.current_version(), 1u + kPublishes);
}

}  // namespace
}  // namespace ncl::serve
