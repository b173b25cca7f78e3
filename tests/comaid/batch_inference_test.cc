// Tests for the batched Phase-II scorer: parity with the tape path and with
// one lane per call, bit-stability across lane counts and batch
// compositions (the ScoreLogProbFastBatch determinism contract), ragged
// target handling including empty residues, and context reuse. Run under the
// asan/tsan presets when touching the lock-step loop — the shrinking-prefix
// masking is exactly the kind of code that hides off-by-one reads.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "comaid/inference.h"
#include "comaid/model.h"
#include "comaid/trainer.h"
#include "util/thread_pool.h"

namespace ncl::comaid {
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
  add("D50.0", {"iron", "deficiency", "anemia", "secondary", "to", "blood", "loss"},
      "D50");
  add("D50.9", {"iron", "deficiency", "anemia", "unspecified"}, "D50");
  add("N18", {"chronic", "kidney", "disease"}, "ROOT");
  add("N18.5", {"chronic", "kidney", "disease", "stage", "5"}, "N18");
  return onto;
}

ComAidConfig SmallConfig() {
  ComAidConfig config;
  config.dim = 12;
  config.beta = 2;
  config.seed = 17;
  return config;
}

/// Ragged targets: multi-word, single-word, empty (<eos>-only residue), and
/// an out-of-vocabulary word.
std::vector<std::vector<std::string>> TestQueries() {
  return {{"anemia", "blood", "loss"},
          {"ckd"},
          {},
          {"anemia", "xylophone", "stage"},
          {"chronic", "kidney", "disease", "stage", "5", "anemia"}};
}

/// Every (concept, query) pair as a lane list with stable target storage.
struct LaneSet {
  std::vector<std::vector<text::WordId>> targets;
  std::vector<BatchScoreLane> lanes;
};

LaneSet MakeLanes(const ComAidModel& model, const ontology::Ontology& onto) {
  LaneSet set;
  auto queries = TestQueries();
  const size_t num_concepts = onto.AllConcepts().size();
  for (size_t c = 0; c < num_concepts; ++c) {
    for (const auto& query : queries) {
      set.targets.push_back(model.MapTokens(query));
    }
  }
  size_t next = 0;
  for (ontology::ConceptId id : onto.AllConcepts()) {
    for (size_t q = 0; q < queries.size(); ++q) {
      BatchScoreLane lane;
      lane.concept_id = id;
      lane.target = &set.targets[next++];
      set.lanes.push_back(lane);
    }
  }
  return set;
}

/// log p(target | concept) scored as a one-lane batch.
double ScoreOneLane(const ComAidModel& model, const BatchScoreLane& lane) {
  BatchScoreLane single{lane.concept_id, lane.target};
  model.ScoreLogProbFastBatch(&single, 1);
  return single.log_prob;
}

TEST(BatchInferenceTest, MatchesSingleLaneBitExactAcrossVariants) {
  // Each lane of a pooled tile must reproduce the same lane scored alone:
  // both run the same canonical per-element reduction order, so this is ==,
  // not NEAR. Variants cover both attention switches; under structural
  // attention every concept, top-level ones included, attends over beta
  // ancestor slots (Def. 4.1 pads a short path with the concept itself).
  ontology::Ontology onto = MakeOntology();
  for (bool text : {true, false}) {
    for (bool structural : {true, false}) {
      ComAidConfig config = SmallConfig();
      config.text_attention = text;
      config.structural_attention = structural;
      ComAidModel model(config, &onto, {{"ckd"}});
      LaneSet set = MakeLanes(model, onto);
      model.ScoreLogProbFastBatch(set.lanes.data(), set.lanes.size());
      for (const BatchScoreLane& lane : set.lanes) {
        EXPECT_EQ(lane.log_prob, ScoreOneLane(model, lane))
            << VariantName(config) << " concept " << lane.concept_id;
      }
    }
  }
}

TEST(BatchInferenceTest, MatchesTapeWithinTolerance) {
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {{"ckd"}});
  LaneSet set = MakeLanes(model, onto);
  model.ScoreLogProbFastBatch(set.lanes.data(), set.lanes.size());
  for (const BatchScoreLane& lane : set.lanes) {
    EXPECT_NEAR(lane.log_prob,
                model.ScoreLogProbIds(lane.concept_id, *lane.target), 1e-5)
        << "concept " << lane.concept_id;
  }
}

TEST(BatchInferenceTest, InvariantToMaxLanesAndRepeats) {
  // The tiling knob must not change a single bit of any score, and repeated
  // runs must agree exactly (determinism).
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {{"ckd"}});
  LaneSet reference = MakeLanes(model, onto);
  model.ScoreLogProbFastBatch(reference.lanes.data(), reference.lanes.size());

  for (size_t max_lanes : {size_t{1}, size_t{3}, size_t{32}}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      LaneSet set = MakeLanes(model, onto);
      model.ScoreLogProbFastBatch(set.lanes.data(), set.lanes.size(),
                                  /*ctx=*/nullptr, max_lanes);
      for (size_t i = 0; i < set.lanes.size(); ++i) {
        EXPECT_EQ(set.lanes[i].log_prob, reference.lanes[i].log_prob)
            << "max_lanes=" << max_lanes << " lane " << i;
      }
    }
  }
}

TEST(BatchInferenceTest, InvariantToLaneOrder) {
  // Reversing the lane order changes which lanes share tiles and the sorted
  // prefix layout; scores must not move.
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {{"ckd"}});
  LaneSet forward = MakeLanes(model, onto);
  model.ScoreLogProbFastBatch(forward.lanes.data(), forward.lanes.size());

  LaneSet backward = MakeLanes(model, onto);
  std::reverse(backward.lanes.begin(), backward.lanes.end());
  model.ScoreLogProbFastBatch(backward.lanes.data(), backward.lanes.size());
  const size_t n = forward.lanes.size();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(forward.lanes[i].log_prob, backward.lanes[n - 1 - i].log_prob)
        << "lane " << i;
  }
}

TEST(BatchInferenceTest, ParityHoldsAfterTraining) {
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {{"ckd", "5"}});
  std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>> aliases = {
      {onto.FindByCode("N18.5"), {"ckd", "5"}},
      {onto.FindByCode("D50.0"), {"anemia", "blood", "loss"}},
  };
  TrainConfig tc;
  tc.epochs = 3;
  ComAidTrainer trainer(tc);
  trainer.Train(&model, MakeTrainingPairs(model, aliases));

  LaneSet set = MakeLanes(model, onto);
  model.ScoreLogProbFastBatch(set.lanes.data(), set.lanes.size());
  for (const BatchScoreLane& lane : set.lanes) {
    EXPECT_EQ(lane.log_prob, ScoreOneLane(model, lane));
    EXPECT_NEAR(lane.log_prob,
                model.ScoreLogProbIds(lane.concept_id, *lane.target), 1e-5);
  }
}

TEST(BatchInferenceTest, ExplicitContextReuseAcrossShapes) {
  // One context reused across differently shaped batches must not leak
  // state between calls (buffers only ever grow).
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});
  BatchInferenceContext ctx;

  LaneSet big = MakeLanes(model, onto);
  model.ScoreLogProbFastBatch(big.lanes.data(), big.lanes.size(), &ctx);
  std::vector<double> first;
  for (const auto& lane : big.lanes) first.push_back(lane.log_prob);

  // A small interleaved batch, then the big one again.
  LaneSet small = MakeLanes(model, onto);
  model.ScoreLogProbFastBatch(small.lanes.data(), 2, &ctx);
  LaneSet again = MakeLanes(model, onto);
  model.ScoreLogProbFastBatch(again.lanes.data(), again.lanes.size(), &ctx);
  for (size_t i = 0; i < again.lanes.size(); ++i) {
    EXPECT_EQ(again.lanes[i].log_prob, first[i]) << "lane " << i;
  }
}

TEST(BatchInferenceTest, ConcurrentBatchesMatchSerial) {
  // Shards score tiles concurrently against one shared model (race-safe
  // lazy cache fills). Run under the tsan preset.
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {{"ckd"}});
  LaneSet serial = MakeLanes(model, onto);
  model.ScoreLogProbFastBatch(serial.lanes.data(), serial.lanes.size());

  model.InvalidateConceptEncodings();
  constexpr size_t kThreads = 4;
  std::vector<LaneSet> sets;
  for (size_t i = 0; i < kThreads; ++i) sets.push_back(MakeLanes(model, onto));
  ThreadPool pool(kThreads);
  pool.ParallelFor(kThreads, [&](size_t i) {
    model.ScoreLogProbFastBatch(sets[i].lanes.data(), sets[i].lanes.size());
  });
  for (const LaneSet& set : sets) {
    for (size_t i = 0; i < set.lanes.size(); ++i) {
      EXPECT_EQ(set.lanes[i].log_prob, serial.lanes[i].log_prob);
    }
  }
}

TEST(BatchInferenceTest, EmptyBatchIsANoOp) {
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});
  model.ScoreLogProbFastBatch(nullptr, 0);  // must not touch lanes or crash
}

}  // namespace
}  // namespace ncl::comaid
