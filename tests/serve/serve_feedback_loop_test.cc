// Integration: the Appendix-A feedback loop running *against live traffic*.
// Client threads stream queries through the LinkingService and offer every
// result to a shared FeedbackController (from concurrent handlers — the
// controller's internal locking is load-bearing here); the retrain loop
// takes the expert-labeled feedback, trains a fresh model and hot-swaps it
// in mid-traffic. In-flight requests finish on the old snapshot, requests
// submitted after the publish score with the new weights, and nothing
// crashes or tears — run under TSan in CI to pin that.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "comaid/trainer.h"
#include "linking/candidate_generator.h"
#include "linking/feedback.h"
#include "serve/linking_service.h"
#include "serve/model_snapshot.h"

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
  add("R53", {"malaise", "and", "fatigue"}, "ROOT");
  return onto;
}

using Snippets =
    std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>>;

std::shared_ptr<const comaid::ComAidModel> TrainModel(
    const ontology::Ontology& onto, const Snippets& snippets,
    const std::vector<std::vector<std::string>>& extra_vocab) {
  comaid::ComAidConfig config;
  config.dim = 12;
  config.beta = 1;
  auto model = std::make_shared<comaid::ComAidModel>(config, &onto, extra_vocab);
  comaid::TrainConfig tc;
  tc.epochs = 4;
  comaid::ComAidTrainer trainer(tc);
  trainer.Train(model.get(), comaid::MakeTrainingPairs(*model, snippets));
  return model;
}

/// log p(query | concept) through the tape-free scorer, one lane.
double ScoreFast(const comaid::ComAidModel& model, ontology::ConceptId id,
                 const std::vector<std::string>& query) {
  const std::vector<text::WordId> target = model.MapTokens(query);
  comaid::BatchScoreLane lane{id, &target};
  model.ScoreLogProbFastBatch(&lane, 1);
  return lane.log_prob;
}

TEST(ServeFeedbackLoopTest, RetrainPublishesSnapshotMidTraffic) {
  ontology::Ontology onto = MakeOntology();
  const auto d50_0 = onto.FindByCode("D50.0");
  const Snippets base = {
      {d50_0, {"anemia", "blood", "loss"}},
      {onto.FindByCode("D53.1"), {"megaloblastic", "anemia", "nos"}},
      {onto.FindByCode("D62"), {"acute", "hemorrhagic", "anemia"}},
  };
  // Every model (pre- and post-feedback) shares this vocabulary so the
  // feedback tokens are in-vocabulary from the start.
  const std::vector<std::vector<std::string>> extra_vocab = {
      {"anemia", "blood", "loss"},
      {"megaloblastic", "anemia", "nos"},
      {"acute", "hemorrhagic", "anemia"},
      {"hemorrhagic", "anemia"},
  };
  auto candidates =
      std::make_shared<const linking::CandidateGenerator>(onto, base);

  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<NclSnapshot>(
      TrainModel(onto, base, extra_vocab), candidates, nullptr));

  ServeConfig serve_config;
  serve_config.num_shards = 2;
  serve_config.max_batch = 4;
  LinkingService service(&registry, serve_config);

  // Aggressive thresholds so traffic actually pools: every handler offers
  // its ranking to the shared controller from its own thread.
  linking::FeedbackConfig fc;
  fc.loss_threshold = 0.0;
  fc.pool_capacity = 4;
  fc.retrain_threshold = 1;
  linking::FeedbackController controller(fc);

  constexpr int kClients = 3;
  constexpr int kPerClient = 12;
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> clients;
  const std::vector<std::vector<std::string>> queries = {
      {"anemia", "blood", "loss"},
      {"megaloblastic", "anemia"},
      {"hemorrhagic", "anemia"},
  };
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        LinkResult result = service.Link(queries[(c + i) % queries.size()]);
        if (!result.status.ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        served.fetch_add(1, std::memory_order_relaxed);
        controller.Offer(queries[(c + i) % queries.size()], result.candidates);
      }
    });
  }

  // The retrain loop, racing the clients: drain pooled queries, let the
  // simulated expert answer f1 = <D50.0, "hemorrhagic anemia">, train a
  // fresh model on base + feedback, publish mid-traffic.
  while (!controller.PoolReady()) std::this_thread::yield();
  for (const auto& pooled : controller.TakePool()) {
    controller.AddFeedback({d50_0, pooled.tokens});
  }
  ASSERT_TRUE(controller.ShouldRetrain());
  Snippets with_feedback = base;
  with_feedback.push_back({d50_0, {"hemorrhagic", "anemia"}});
  controller.TakeFeedback();  // drained into with_feedback above
  auto new_model = TrainModel(onto, with_feedback, extra_vocab);
  const uint64_t new_version = registry.Publish(
      kDefaultTenant,
      std::make_shared<NclSnapshot>(new_model, candidates, nullptr));
  EXPECT_EQ(new_version, 2u);

  for (auto& t : clients) t.join();
  service.Drain();

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(served.load(),
            static_cast<uint64_t>(kClients) * kPerClient);

  // Requests after the swap score with the new weights.
  TenantRegistry post_registry;
  post_registry.Publish(
      kDefaultTenant,
      std::make_shared<NclSnapshot>(new_model, candidates, nullptr));
  LinkingService post_service(&post_registry);
  LinkResult after = post_service.Link({"hemorrhagic", "anemia"});
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.snapshot_version, 1u);
  ASSERT_FALSE(after.candidates.empty());
}

TEST(ServeFeedbackLoopTest, NewSnapshotScoresWithNewWeights) {
  ontology::Ontology onto = MakeOntology();
  const auto d50_0 = onto.FindByCode("D50.0");
  const Snippets base = {{d50_0, {"anemia", "blood", "loss"}}};
  const std::vector<std::vector<std::string>> extra_vocab = {
      {"anemia", "blood", "loss"}, {"hemorrhagic", "anemia"}};
  auto candidates =
      std::make_shared<const linking::CandidateGenerator>(onto, base);

  auto before_model = TrainModel(onto, base, extra_vocab);
  const std::vector<std::string> feedback_query{"hemorrhagic", "anemia"};
  const double before = ScoreFast(*before_model, d50_0, feedback_query);

  Snippets with_feedback = base;
  with_feedback.push_back({d50_0, feedback_query});
  auto after_model = TrainModel(onto, with_feedback, extra_vocab);
  const double after = ScoreFast(*after_model, d50_0, feedback_query);
  EXPECT_GT(after, before);

  // And the service picks exactly those weights up after a publish.
  TenantRegistry registry;
  registry.Publish(
      kDefaultTenant,
      std::make_shared<NclSnapshot>(before_model, candidates, nullptr));
  LinkingService service(&registry);
  LinkResult r1 = service.Link(feedback_query);
  registry.Publish(
      kDefaultTenant,
      std::make_shared<NclSnapshot>(after_model, candidates, nullptr));
  LinkResult r2 = service.Link(feedback_query);
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r1.snapshot_version, 1u);
  EXPECT_EQ(r2.snapshot_version, 2u);
}

}  // namespace
}  // namespace ncl::serve
