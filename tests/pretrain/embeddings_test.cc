#include "pretrain/embeddings.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

namespace ncl::pretrain {
namespace {

WordEmbeddings MakeToyEmbeddings() {
  text::Vocabulary vocab;
  vocab.Add("right", 5);   // id 0: (1, 0)
  vocab.Add("up", 3);      // id 1: (0, 1)
  vocab.Add("mostly", 2);  // id 2: (0.9, 0.1)
  vocab.Add("zero", 1);    // id 3: (0, 0)
  nn::Matrix vectors = nn::Matrix::FromValues(
      4, 2, {1.0f, 0.0f, 0.0f, 1.0f, 0.9f, 0.1f, 0.0f, 0.0f});
  return WordEmbeddings(std::move(vocab), std::move(vectors));
}

TEST(WordEmbeddingsTest, CosineKnownValues) {
  WordEmbeddings emb = MakeToyEmbeddings();
  EXPECT_NEAR(emb.Cosine(0, 0), 1.0, 1e-9);
  EXPECT_NEAR(emb.Cosine(0, 1), 0.0, 1e-9);
  EXPECT_GT(emb.Cosine(0, 2), 0.99);
}

TEST(WordEmbeddingsTest, ZeroVectorCosineIsZero) {
  WordEmbeddings emb = MakeToyEmbeddings();
  EXPECT_EQ(emb.Cosine(0, 3), 0.0);
}

TEST(WordEmbeddingsTest, NearestExcludesSelf) {
  WordEmbeddings emb = MakeToyEmbeddings();
  auto nearest = emb.Nearest(0, 10);
  for (const auto& [id, score] : nearest) EXPECT_NE(id, 0);
}

TEST(WordEmbeddingsTest, NearestOrdering) {
  WordEmbeddings emb = MakeToyEmbeddings();
  auto nearest = emb.Nearest(0, 2);
  ASSERT_EQ(nearest.size(), 2u);
  EXPECT_EQ(emb.vocabulary().WordOf(nearest[0].first), "mostly");
}

TEST(WordEmbeddingsTest, NearestWithFilter) {
  WordEmbeddings emb = MakeToyEmbeddings();
  auto nearest = emb.Nearest(0, 5, [](text::WordId id) { return id == 1; });
  ASSERT_EQ(nearest.size(), 1u);
  EXPECT_EQ(nearest[0].first, 1);
}

TEST(WordEmbeddingsTest, NearestKLimits) {
  WordEmbeddings emb = MakeToyEmbeddings();
  EXPECT_EQ(emb.Nearest(0, 1).size(), 1u);
  EXPECT_EQ(emb.Nearest(0, 100).size(), 3u);  // everything but self
}

TEST(WordEmbeddingsTest, VectorOfReturnsRow) {
  WordEmbeddings emb = MakeToyEmbeddings();
  const float* v = emb.VectorOf(2);
  EXPECT_FLOAT_EQ(v[0], 0.9f);
  EXPECT_FLOAT_EQ(v[1], 0.1f);
}

TEST(WordEmbeddingsTest, SaveLoadRoundTrip) {
  WordEmbeddings emb = MakeToyEmbeddings();
  std::string path = testing::TempDir() + "/ncl_embeddings_test.bin";
  ASSERT_TRUE(emb.Save(path).ok());
  auto loaded = WordEmbeddings::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), emb.size());
  EXPECT_EQ(loaded->dim(), emb.dim());
  EXPECT_EQ(loaded->vocabulary().Lookup("mostly"), 2);
  EXPECT_EQ(loaded->vocabulary().CountOf(0), 5u);
  EXPECT_FLOAT_EQ(loaded->VectorOf(2)[0], 0.9f);
  EXPECT_NEAR(loaded->Cosine(0, 2), emb.Cosine(0, 2), 1e-9);
  std::remove(path.c_str());
}

// A forged file must fail with a Status before anything is allocated for
// its counts, and a repeated word must not reach the row-count check that
// aborts.
TEST(WordEmbeddingsTest, ForgedFileFailsWithStatus) {
  const std::string path = testing::TempDir() + "/ncl_embeddings_forged.bin";
  ASSERT_TRUE(MakeToyEmbeddings().Save(path).ok());
  std::string saved;
  {
    std::ifstream in(path, std::ios::binary);
    saved.assign(std::istreambuf_iterator<char>(in), {});
  }
  auto u64 = [](uint64_t v) {
    return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  // Layout: u32 magic, u64 count @4, u64 width @12, then per word a u64
  // length (@20 for "right"), its bytes, a u64 frequency and width floats;
  // "up" is the 26-byte entry at @49.
  constexpr uint64_t kHuge = uint64_t{1} << 60;
  const std::string up = saved.substr(49, 8 + 2 + 8 + 2 * sizeof(float));
  const std::pair<const char*, std::string> forgeries[] = {
      {"word count", std::string(saved).replace(4, 8, u64(kHuge))},
      {"width", std::string(saved).replace(12, 8, u64(kHuge))},
      {"word length", std::string(saved).replace(20, 8, u64(kHuge))},
      {"repeated word", saved.substr(0, 4) + u64(2) + u64(2) + up + up},
  };
  for (const auto& [what, bytes] : forgeries) {
    SCOPED_TRACE(what);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    auto loaded = WordEmbeddings::Load(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(WordEmbeddingsTest, LoadMissingFileFails) {
  auto result = WordEmbeddings::Load("/nonexistent-xyz/emb.bin");
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace ncl::pretrain
