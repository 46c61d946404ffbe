// TSV serialization round-trips and failure injection.
#include "sparse/io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/random.hpp"

namespace radix {
namespace {

class SparseIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("radixnet_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

Csr<float> random_f32(index_t rows, index_t cols, double density, Rng& rng) {
  Coo<float> coo(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) {
        coo.push(r, c, static_cast<float>(rng.uniform(-4.0, 4.0)));
      }
    }
  }
  return Csr<float>::from_coo(coo);
}

TEST_F(SparseIoTest, FloatRoundTrip) {
  Rng rng(1);
  const auto m = random_f32(12, 9, 0.3, rng);
  write_tsv(path("m.tsv"), m);
  const auto back = read_tsv_f32(path("m.tsv"));
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  ASSERT_EQ(back.nnz(), m.nnz());
  for (index_t r = 0; r < m.rows(); ++r) {
    auto c0 = m.row_cols(r);
    auto c1 = back.row_cols(r);
    ASSERT_EQ(std::vector<index_t>(c0.begin(), c0.end()),
              std::vector<index_t>(c1.begin(), c1.end()));
    for (std::size_t k = 0; k < c0.size(); ++k) {
      EXPECT_NEAR(m.row_vals(r)[k], back.row_vals(r)[k], 1e-5f);
    }
  }
}

TEST_F(SparseIoTest, PatternRoundTrip) {
  Rng rng(2);
  const auto m = random_f32(7, 7, 0.4, rng).pattern();
  write_tsv(path("p.tsv"), m);
  EXPECT_EQ(read_tsv_pattern(path("p.tsv")), m);
}

TEST_F(SparseIoTest, ShapeHeaderPreservesEmptyTrailingRows) {
  Coo<float> coo(5, 6);
  coo.push(0, 0, 1.0f);  // rows 1..4 and cols 1..5 are empty
  const auto m = Csr<float>::from_coo(coo);
  write_tsv(path("s.tsv"), m);
  const auto back = read_tsv_f32(path("s.tsv"));
  EXPECT_EQ(back.rows(), 5u);
  EXPECT_EQ(back.cols(), 6u);
}

TEST_F(SparseIoTest, MissingFileThrows) {
  EXPECT_THROW(read_tsv_f32(path("nope.tsv")), IoError);
}

TEST_F(SparseIoTest, GarbageLineThrows) {
  std::ofstream out(path("bad.tsv"));
  out << "1\t2\tnot_a_number\n";
  out.close();
  EXPECT_THROW(read_tsv_f32(path("bad.tsv")), IoError);
}

TEST_F(SparseIoTest, ZeroBasedIndexRejected) {
  std::ofstream out(path("zero.tsv"));
  out << "0\t1\t3.5\n";
  out.close();
  EXPECT_THROW(read_tsv_f32(path("zero.tsv")), IoError);
}

TEST_F(SparseIoTest, EntryOutsideDeclaredShapeRejected) {
  std::ofstream out(path("oob.tsv"));
  out << "%%shape 2 2\n3\t1\t1.0\n";
  out.close();
  EXPECT_THROW(read_tsv_f32(path("oob.tsv")), IoError);
}

TEST_F(SparseIoTest, CommentsAndBlankLinesIgnored) {
  std::ofstream out(path("c.tsv"));
  out << "%%shape 2 2\n% a comment\n\n# another\n1\t2\t1.5\n";
  out.close();
  const auto m = read_tsv_f32(path("c.tsv"));
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_FLOAT_EQ(m.at(0, 1), 1.5f);
}

TEST_F(SparseIoTest, DuplicateEntriesCombineAdditively) {
  std::ofstream out(path("dup.tsv"));
  out << "1\t1\t2.0\n1\t1\t3.0\n";
  out.close();
  const auto m = read_tsv_f32(path("dup.tsv"));
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_FLOAT_EQ(m.at(0, 0), 5.0f);
}

TEST_F(SparseIoTest, LayerStackRoundTrip) {
  Rng rng(3);
  std::vector<Csr<pattern_t>> layers;
  layers.push_back(random_f32(4, 6, 0.5, rng).pattern());
  layers.push_back(random_f32(6, 5, 0.5, rng).pattern());
  layers.push_back(random_f32(5, 4, 0.5, rng).pattern());
  write_layer_stack(path("stack"), layers);
  const auto back = read_layer_stack(path("stack"));
  ASSERT_EQ(back.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back[i], layers[i]) << "layer " << i;
  }
}

TEST_F(SparseIoTest, LayerStackMissingMetaThrows) {
  EXPECT_THROW(read_layer_stack(path("ghost")), IoError);
}

TEST_F(SparseIoTest, EmptyMatrixRoundTrip) {
  const auto m = Csr<float>::from_coo(Coo<float>(3, 4));
  ASSERT_EQ(m.nnz(), 0u);
  write_tsv(path("empty.tsv"), m);
  const auto back = read_tsv_f32(path("empty.tsv"));
  EXPECT_EQ(back.rows(), 3u);
  EXPECT_EQ(back.cols(), 4u);
  EXPECT_EQ(back.nnz(), 0u);
}

TEST_F(SparseIoTest, ShapeHeaderPreservesTrailingZeroRowsAndCols) {
  // Last two rows and last three columns hold no entries; only the
  // %%shape header keeps them from being silently truncated.
  Coo<float> coo(6, 8);
  coo.push(0, 0, 1.0f);
  coo.push(3, 4, -2.5f);
  const auto m = Csr<float>::from_coo(coo);
  write_tsv(path("trail.tsv"), m);
  const auto back = read_tsv_f32(path("trail.tsv"));
  EXPECT_EQ(back.rows(), 6u);
  EXPECT_EQ(back.cols(), 8u);
  EXPECT_EQ(back.nnz(), 2u);
  EXPECT_FLOAT_EQ(back.at(3, 4), -2.5f);
}

TEST_F(SparseIoTest, ParseErrorsCarryPathAndLine) {
  std::ofstream out(path("where.tsv"));
  out << "1\t1\t1.0\n2\t2\t2.0\nbogus line here\n";
  out.close();
  try {
    read_tsv_f32(path("where.tsv"));
    FAIL() << "garbage line must throw";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path("where.tsv") + ":3"), std::string::npos) << what;
  }
}

TEST_F(SparseIoTest, OutOfShapeErrorNamesOffendingLine) {
  std::ofstream out(path("oobline.tsv"));
  out << "%%shape 2 2\n1\t1\t1.0\n3\t1\t1.0\n";
  out.close();
  try {
    read_tsv_f32(path("oobline.tsv"));
    FAIL() << "entry outside %%shape must throw";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path("oobline.tsv") + ":3"), std::string::npos)
        << what;
  }
}

TEST_F(SparseIoTest, LayerStackMetaShapeDisagreementThrows) {
  // An index file that disagrees with the layer files must throw, not
  // quietly deliver the wrong shapes.
  Rng rng(4);
  std::vector<Csr<pattern_t>> layers;
  layers.push_back(random_f32(4, 6, 0.5, rng).pattern());
  layers.push_back(random_f32(6, 5, 0.5, rng).pattern());
  write_layer_stack(path("liar"), layers);
  {
    std::ofstream meta(path("liar") + "-meta.txt", std::ios::trunc);
    meta << 2 << '\n' << "4 6\n" << "7 5\n";  // wrong rows for layer 1
  }
  try {
    read_layer_stack(path("liar"));
    FAIL() << "meta/layer disagreement must throw";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("disagrees"), std::string::npos) << what;
    EXPECT_NE(what.find("layer1"), std::string::npos) << what;
  }
}

TEST_F(SparseIoTest, LayerStackMetaCountBeyondFilesThrows) {
  Rng rng(5);
  std::vector<Csr<pattern_t>> layers;
  layers.push_back(random_f32(3, 3, 0.5, rng).pattern());
  write_layer_stack(path("overcount"), layers);
  {
    std::ofstream meta(path("overcount") + "-meta.txt", std::ios::trunc);
    meta << 2 << '\n' << "3 3\n" << "3 3\n";  // claims a second layer
  }
  EXPECT_THROW(read_layer_stack(path("overcount")), IoError);
}

TEST_F(SparseIoTest, OutOfRangeAndFractionalIndicesRejected) {
  // Each line once parsed as a double and was cast to index_t: 1e300
  // and 2^32 + 1 are undefined casts, 1.5 truncated silently.
  for (const char* line : {"1e300\t1\t1.0\n", "1\t4294967297\t1.0\n",
                           "1.5\t1\t1.0\n", "1\t16777217\t1.0\n",
                           "1\t1\t1e300\n"}) {
    {
      std::ofstream out(path("range.tsv"), std::ios::trunc);
      out << line;
    }
    EXPECT_THROW(read_tsv_f32(path("range.tsv")), IoError) << line;
    EXPECT_THROW(read_tsv_pattern(path("range.tsv")), IoError) << line;
  }
  {
    std::ofstream out(path("edge.tsv"), std::ios::trunc);
    out << "2\t16777216\t1.0\n";  // the largest admitted index
  }
  EXPECT_EQ(read_tsv_pattern(path("edge.tsv")).cols(), kMaxTsvDimension);
}

TEST_F(SparseIoTest, OversizedShapeRejectedBeforeAllocating) {
  // At the parent a 2^32 - 1 row header allocated a 32 GB row pointer.
  for (const char* header : {"%%shape 4294967295 1\n", "%%shape 1 16777217\n",
                             "%%shape 4294967296 1\n"}) {
    {
      std::ofstream out(path("huge.tsv"), std::ios::trunc);
      out << header;
    }
    EXPECT_THROW(read_tsv_pattern(path("huge.tsv")), IoError) << header;
  }
}

TEST_F(SparseIoTest, DuplicateSumOutOfFloatRangeRejected) {
  std::ofstream out(path("sum.tsv"));
  out << "1\t1\t3e38\n1\t1\t3e38\n";
  out.close();
  EXPECT_THROW(read_tsv_f32(path("sum.tsv")), IoError);
  EXPECT_EQ(read_tsv_pattern(path("sum.tsv")).nnz(), 1u);
}

TEST_F(SparseIoTest, LayerStackHugeMetaCountThrows) {
  Rng rng(6);
  write_layer_stack(path("many"), {random_f32(3, 3, 0.5, rng).pattern()});
  {
    std::ofstream meta(path("many") + "-meta.txt", std::ios::trunc);
    meta << "18446744073709551615\n3 3\n";
  }
  EXPECT_THROW(read_layer_stack(path("many")), IoError);
}

// Seeded mutation of written TSV text: each mutant must load or throw
// IoError -- never another exception, a crash, an undefined cast (CI
// runs this under ASan+UBSan with float-cast-overflow) or an allocation
// sized by a corrupt number.  The replacement numbers sit on both sides
// of every limit except the admitted maximum 2^24, whose 128 MB row
// pointer would dominate the run (OutOfRangeAndFractionalIndicesRejected
// covers it).
class TsvFuzz : public SparseIoTest,
                public ::testing::WithParamInterface<int> {
 protected:
  // One to three edits: a character, a number replaced whole, a digit
  // inserted, or a line deleted, duplicated or swapped with the next.
  static std::string mutate(std::string text, Rng& rng) {
    static const char kChars[] = "0123456789.-+e\t %#\n";
    static const char* const kNumbers[] = {
        "0",     "1",          "-1",         "1.5",    "3",
        "40",    "16777217",   "4294967295", "4294967297",
        "1e300", "-1e300",     "3e38",       "3.5e38", "1e-45",
        "nan",   "inf",        "99999999999999999999"};
    const int edits = 1 + static_cast<int>(rng.uniform(3));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng.uniform(text.size());
      const std::size_t bol = text.rfind('\n', at == 0 ? 0 : at - 1);
      const std::size_t line_lo = bol == std::string::npos || at == 0
                                      ? 0
                                      : bol + 1;
      const std::size_t eol = text.find('\n', line_lo);
      const std::size_t line_hi =
          eol == std::string::npos ? text.size() : eol + 1;
      switch (rng.uniform(6)) {
        case 0:
          text[at] = kChars[rng.uniform(sizeof(kChars) - 1)];
          break;
        case 1: {
          std::size_t b = text.find_first_of("0123456789", at);
          if (b == std::string::npos) break;
          while (b > 0 && std::isdigit(static_cast<unsigned char>(text[b - 1]))) {
            --b;
          }
          const std::size_t end = text.find_first_not_of("0123456789", b);
          text.replace(b, end == std::string::npos ? std::string::npos : end - b,
                       kNumbers[rng.uniform(std::size(kNumbers))]);
          break;
        }
        case 2:
          text.insert(at, 1, static_cast<char>('0' + rng.uniform(10)));
          break;
        case 3:
          text.erase(line_lo, line_hi - line_lo);
          break;
        case 4:
          text.insert(line_lo, text.substr(line_lo, line_hi - line_lo));
          break;
        default: {
          if (line_hi >= text.size()) break;
          const std::size_t next_eol = text.find('\n', line_hi);
          const std::size_t next_hi =
              next_eol == std::string::npos ? text.size() : next_eol + 1;
          const std::string a = text.substr(line_lo, line_hi - line_lo);
          const std::string b = text.substr(line_hi, next_hi - line_hi);
          text.replace(line_lo, next_hi - line_lo, b + a);
          break;
        }
      }
    }
    return text;
  }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  static void spit(const std::string& p, const std::string& text) {
    std::ofstream out(p, std::ios::trunc);
    out << text;
  }

  // A loaded matrix is a valid CSR within the dimension limit.
  template <class T>
  static void expect_sane(const Csr<T>& m) {
    EXPECT_LE(m.rows(), kMaxTsvDimension);
    EXPECT_LE(m.cols(), kMaxTsvDimension);
    for (index_t r = 0; r < m.rows(); ++r) {
      for (const index_t c : m.row_cols(r)) EXPECT_LT(c, m.cols());
    }
  }
};

TEST_P(TsvFuzz, MatrixLoadsOrThrowsIoError) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 1);
  const auto m = random_f32(1 + static_cast<index_t>(rng.uniform(9)),
                            1 + static_cast<index_t>(rng.uniform(9)), 0.4,
                            rng);
  write_tsv(path("valid.tsv"), m);
  const std::string valid = slurp(path("valid.tsv"));
  int refused = 0;
  for (int round = 0; round < 64; ++round) {
    spit(path("mutant.tsv"), mutate(valid, rng));
    try {
      const auto f = read_tsv_f32(path("mutant.tsv"));
      expect_sane(f);
      for (const float v : f.values()) EXPECT_TRUE(std::isfinite(v)) << v;
      expect_sane(read_tsv_pattern(path("mutant.tsv")));
    } catch (const IoError&) {
      ++refused;
    }
  }
  EXPECT_GT(refused, 0) << "no mutant was refused: the mutations are inert";
}

TEST_P(TsvFuzz, StackLoadsOrThrowsIoError) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  std::vector<Csr<pattern_t>> layers;
  for (index_t w0 = 5, k = 0; k < 3; ++k) {
    const index_t w1 = 2 + static_cast<index_t>(rng.uniform(6));
    layers.push_back(random_f32(w0, w1, 0.5, rng).pattern());
    w0 = w1;
  }
  write_layer_stack(path("stack"), layers);
  std::vector<std::string> files = {path("stack") + "-meta.txt"};
  for (std::size_t k = 0; k < layers.size(); ++k) {
    files.push_back(path("stack") + "-layer" + std::to_string(k) + ".tsv");
  }
  std::vector<std::string> valid;
  for (const auto& f : files) valid.push_back(slurp(f));
  for (int round = 0; round < 64; ++round) {
    const std::size_t victim = rng.uniform(files.size());
    spit(files[victim], mutate(valid[victim], rng));
    try {
      const auto back = read_layer_stack(path("stack"));
      for (const auto& l : back) expect_sane(l);
    } catch (const IoError&) {
    }
    spit(files[victim], valid[victim]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TsvFuzz, ::testing::Range(0, 16));

}  // namespace
}  // namespace radix
