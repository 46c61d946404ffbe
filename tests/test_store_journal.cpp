// The model-lifecycle log: events fold into one row per id (tombstones
// and versions included) and come back identically on reopen, the
// router-side mutations stage and name their artifacts, a failed commit
// changes nothing, crash-safety around the temp file, and typed
// rejection of malformed logs.
#include "store/journal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "radixnet/graph_challenge.hpp"
#include "store/artifact.hpp"
#include "support/error.hpp"
#include "support/random.hpp"

namespace {

using namespace radix;
using store::JournalOp;
using store::RegistryJournal;

std::shared_ptr<const infer::SparseDnn> make_dnn(std::uint64_t seed) {
  Rng rng(seed);
  const auto net = gc::network(1024, 2, &rng);
  return std::make_shared<const infer::SparseDnn>(net.layers, net.bias,
                                                  gc::kClamp);
}

std::vector<float> forward(const infer::SparseDnn& dnn) {
  Rng rng(7);
  const auto x = gc::synthetic_input(2, 1024, 0.4, rng);
  infer::InferenceWorkspace ws;
  const auto y = dnn.forward(x.data(), 2, ws);
  return {y.begin(), y.end()};
}

class StoreJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "radixnet_journal_test_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // An artifact the raw append path can map.
  void put(const std::string& file, std::uint64_t seed) {
    store::save_artifact(dir_ + "/" + file, *make_dnn(seed), file);
  }

  void write_log(const std::string& text) {
    std::ofstream(dir_ + "/journal") << text;
  }

  std::string dir_;
};

TEST_F(StoreJournalTest, FreshDirectoryCreatesEmptyCommittedJournal) {
  RegistryJournal j(dir_);
  EXPECT_TRUE(j.file_backed());
  EXPECT_TRUE(j.rows().empty());

  std::ifstream in(dir_ + "/journal");
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, "radix-journal v1");
}

TEST_F(StoreJournalTest, EventsFoldIntoRowsByIdAcrossReopen) {
  put("a1.radixart", 1);
  put("b1.radixart", 2);
  put("a2.radixart", 3);
  put("c1.radixart", 4);
  {
    RegistryJournal j(dir_);
    j.append({JournalOp::kAdd, "a", "a1.radixart", 2});
    j.append({JournalOp::kAdd, "b", "b1.radixart", 1});
    j.append({JournalOp::kSwap, "a", "a2.radixart", 2});
    j.append({JournalOp::kRemove, "b", "", 0});
    j.append({JournalOp::kAdd, "c", "c1.radixart", 0});
    j.append({JournalOp::kTombstone, "c", "", 0});
    // A removed name is free again, under a new id.
    j.append({JournalOp::kAdd, "b", "b1.radixart", 0});
  }
  RegistryJournal j(dir_);
  const auto& rows = j.rows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].name, "a");
  EXPECT_EQ(rows[0].version, 2u);
  EXPECT_EQ(rows[0].artifact, "a2.radixart");
  EXPECT_EQ(rows[0].qos.priority, serve::Priority{2});
  ASSERT_NE(rows[0].dnn, nullptr);
  EXPECT_EQ(forward(*rows[0].dnn), forward(*make_dnn(3)));
  EXPECT_TRUE(rows[1].retired);
  EXPECT_EQ(rows[1].dnn, nullptr) << "a retired row releases its weights";
  EXPECT_TRUE(rows[2].retired);
  EXPECT_EQ(rows[3].name, "b");
  EXPECT_FALSE(rows[3].retired);
  EXPECT_EQ(forward(*rows[3].dnn), forward(*make_dnn(2)));
}

TEST_F(StoreJournalTest, MutationsNameArtifactsByIdAndVersion) {
  {
    RegistryJournal j(dir_);
    EXPECT_EQ(j.add(make_dnn(1), "a", {.priority = serve::Priority{1}}), 0u);
    EXPECT_EQ(j.add(make_dnn(2), "b", {}, j.stage(*make_dnn(2), "b")), 1u);
    j.swap(0, make_dnn(3));
    j.remove(1);
  }
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/model-0.radixart"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/model-0.v2.radixart"));
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string().rfind("stage-", 0),
              std::string::npos)
        << "staged file left behind: " << entry.path();
  }
  RegistryJournal j(dir_);
  ASSERT_EQ(j.rows().size(), 2u);
  EXPECT_EQ(j.rows()[0].version, 2u);
  EXPECT_EQ(j.rows()[0].qos.priority, serve::Priority{1});
  EXPECT_EQ(forward(*j.rows()[0].dnn), forward(*make_dnn(3)));
  EXPECT_TRUE(j.rows()[1].retired);
}

TEST_F(StoreJournalTest, FailedCommitChangesNothingButBurnStillRetires) {
  RegistryJournal j(dir_);
  j.add(make_dnn(1), "a", {});
  // A directory where the commit's temp file goes makes every commit
  // fail.
  std::filesystem::create_directory(dir_ + "/journal.tmp");
  EXPECT_THROW(j.add(make_dnn(2), "b", {}), IoError);
  EXPECT_EQ(j.rows().size(), 1u);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/model-1.radixart"))
      << "an artifact of a refused add stays behind";
  EXPECT_THROW(j.remove(0), IoError);
  EXPECT_FALSE(j.rows()[0].retired);

  // A rollback the caller already made: the row retires even though the
  // commit fails.
  EXPECT_THROW(j.burn(0), IoError);
  EXPECT_TRUE(j.rows()[0].retired);
  std::filesystem::remove(dir_ + "/journal.tmp");
  j.add(make_dnn(2), "b", {});  // this commit carries the burn too

  RegistryJournal reopened(dir_);
  ASSERT_EQ(reopened.rows().size(), 2u);
  EXPECT_TRUE(reopened.rows()[0].retired);
  EXPECT_EQ(reopened.rows()[1].name, "b");
}

TEST_F(StoreJournalTest, InMemoryLogWritesNothing) {
  RegistryJournal j;
  EXPECT_FALSE(j.file_backed());
  EXPECT_EQ(j.add(make_dnn(1), "a", {}), 0u);
  j.swap(0, make_dnn(2));
  EXPECT_EQ(j.rows()[0].version, 2u);
  EXPECT_EQ(j.rows()[0].artifact, "");
  EXPECT_THROW(j.append({JournalOp::kAdd, "b", "b.radixart", 0}), Error);
}

TEST_F(StoreJournalTest, StaleTempFileIsIgnored) {
  put("m.radixart", 1);
  {
    RegistryJournal j(dir_);
    j.append({JournalOp::kAdd, "m", "m.radixart", 0});
  }
  // A crash between write and rename leaves journal.tmp behind; replay
  // must read only the committed journal.
  std::ofstream tmp(dir_ + "/journal.tmp");
  tmp << "garbage that must never be parsed\n";
  tmp.close();

  RegistryJournal j(dir_);
  ASSERT_EQ(j.rows().size(), 1u);
  EXPECT_EQ(j.rows()[0].name, "m");
}

TEST_F(StoreJournalTest, MalformedJournalThrowsWithLineNumber) {
  put("m.radixart", 1);
  write_log("radix-journal v1\nadd\tm\tm.radixart\t0\nfrobnicate\tm\n");
  try {
    RegistryJournal j(dir_);
    FAIL() << "malformed journal must not load";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(":3"), std::string::npos) << what;
    EXPECT_NE(what.find("frobnicate"), std::string::npos) << what;
  }
}

TEST_F(StoreJournalTest, MissingHeaderThrows) {
  write_log("add\tm\tm.radixart\t0\n");
  EXPECT_THROW(RegistryJournal j(dir_), IoError);
}

TEST_F(StoreJournalTest, BadPriorityThrows) {
  put("m.radixart", 1);
  write_log("radix-journal v1\nadd\tm\tm.radixart\t9000\n");
  EXPECT_THROW(RegistryJournal j(dir_), IoError);
  write_log("radix-journal v1\nadd\tm\tm.radixart\t7\n");
  EXPECT_THROW(RegistryJournal j(dir_), IoError);
}

TEST_F(StoreJournalTest, EventsMustNameLiveRows) {
  put("m.radixart", 1);
  write_log("radix-journal v1\nswap\tm\tm.radixart\t0\n");
  EXPECT_THROW(RegistryJournal j(dir_), IoError);
  write_log("radix-journal v1\nadd\tm\tm.radixart\t0\nadd\tm\tm.radixart\t0\n");
  EXPECT_THROW(RegistryJournal j(dir_), IoError);
  write_log("radix-journal v1\nadd\tm\tm.radixart\t0\nremove\tm\n"
            "tombstone\tm\n");
  EXPECT_THROW(RegistryJournal j(dir_), IoError);
}

TEST_F(StoreJournalTest, FieldsMayNotContainTabs) {
  put("a.radixart", 1);
  RegistryJournal j(dir_);
  EXPECT_THROW(j.append({JournalOp::kAdd, "bad\tname", "a.radixart", 0}),
               IoError);
  // The failed append must not poison the rows.
  EXPECT_TRUE(j.rows().empty());
}

}  // namespace
