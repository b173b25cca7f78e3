#include "comaid/model_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "comaid/trainer.h"

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
  add("N18", {"chronic", "kidney", "disease"}, "ROOT");
  add("N18.5", {"chronic", "kidney", "disease", "stage", "5"}, "N18");
  return onto;
}

TEST(ModelIoTest, RoundTripPreservesScores) {
  ontology::Ontology onto = MakeOntology();
  ComAidConfig config;
  config.dim = 12;
  ComAidModel model(config, &onto, {{"ckd", "5"}});

  std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>> data = {
      {onto.FindByCode("N18.5"), {"ckd", "5"}}};
  TrainConfig tc;
  tc.epochs = 5;
  ComAidTrainer trainer(tc);
  trainer.Train(&model, MakeTrainingPairs(model, data));

  std::string path = testing::TempDir() + "/ncl_model_io_test.bin";
  ASSERT_TRUE(SaveModel(model, path).ok());

  auto loaded = LoadModel(path, &onto);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->config().dim, 12u);
  EXPECT_EQ((*loaded)->vocabulary().size(), model.vocabulary().size());
  auto c = onto.FindByCode("N18.5");
  EXPECT_NEAR((*loaded)->ScoreLogProb(c, {"ckd", "5"}),
              model.ScoreLogProb(c, {"ckd", "5"}), 1e-9);
  std::remove(path.c_str());
  std::remove((path + ".params").c_str());
}

TEST(ModelIoTest, RoundTripPreservesAblationFlags) {
  ontology::Ontology onto = MakeOntology();
  ComAidConfig config;
  config.dim = 8;
  config.text_attention = false;
  ComAidModel model(config, &onto, {});
  std::string path = testing::TempDir() + "/ncl_model_io_flags_test.bin";
  ASSERT_TRUE(SaveModel(model, path).ok());
  auto loaded = LoadModel(path, &onto);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE((*loaded)->config().text_attention);
  EXPECT_TRUE((*loaded)->config().structural_attention);
  std::remove(path.c_str());
  std::remove((path + ".params").c_str());
}

TEST(ModelIoTest, ChangedOntologyDetected) {
  ontology::Ontology onto = MakeOntology();
  ComAidConfig config;
  config.dim = 8;
  ComAidModel model(config, &onto, {});
  std::string path = testing::TempDir() + "/ncl_model_io_mismatch_test.bin";
  ASSERT_TRUE(SaveModel(model, path).ok());

  // A different ontology (extra description words) must be rejected.
  ontology::Ontology other;
  ASSERT_TRUE(other.AddConcept("X01", {"totally", "different", "words"},
                               ontology::kRootConcept).ok());
  auto loaded = LoadModel(path, &other);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
  std::remove((path + ".params").c_str());
}

// A checkpoint whose counts are forged must fail with a Status before
// anything is allocated for them — never abort the process (a vocabulary
// count of 2^60 used to throw std::length_error out of LoadModel).
TEST(ModelIoTest, ForgedCountsFailWithStatus) {
  ontology::Ontology onto = MakeOntology();
  ComAidConfig config;
  config.dim = 8;
  ComAidModel model(config, &onto, {{"ckd", "5"}});
  const std::string path = testing::TempDir() + "/ncl_model_io_forged_test.bin";

  constexpr uint64_t kHuge = uint64_t{1} << 60;
  struct Forgery {
    const char* what;
    const char* suffix;  ///< which file: "" = model.bin, ".params" = weights
    std::streamoff offset;
    uint64_t value;
  };
  // model.bin: magic, version (u32 each), dim @8, beta @16, two u32 flags,
  // seed @32, vocab count @40, first word's length @48. .params: magic,
  // version, parameter count @8, first name's length @16.
  const Forgery forgeries[] = {
      {"vocab count", "", 40, kHuge},
      {"word length", "", 48, kHuge},
      {"param count", ".params", 8, kHuge},
      {"name length", ".params", 16, kHuge},
      {"zero dim", "", 8, 0},
      {"dim beyond the weights", "", 8, uint64_t{1} << 32},
      {"huge dim", "", 8, kHuge},
      {"beta beyond int32", "", 16, kHuge},
      {"zero beta", "", 16, 0},
  };
  for (const Forgery& forgery : forgeries) {
    SCOPED_TRACE(forgery.what);
    ASSERT_TRUE(SaveModel(model, path).ok());
    {
      std::fstream file(path + forgery.suffix,
                        std::ios::binary | std::ios::in | std::ios::out);
      ASSERT_TRUE(file.is_open());
      file.seekp(forgery.offset);
      file.write(reinterpret_cast<const char*>(&forgery.value),
                 sizeof(forgery.value));
      ASSERT_TRUE(file.good());
    }
    auto loaded = LoadModel(path, &onto);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
  std::remove((path + ".params").c_str());
}

TEST(ModelIoTest, MissingFileFails) {
  ontology::Ontology onto = MakeOntology();
  auto loaded = LoadModel("/nonexistent-xyz/model.bin", &onto);
  EXPECT_FALSE(loaded.ok());
}

}  // namespace
}  // namespace ncl::comaid
