// Seeded mutation fuzzing of the model-log parser: byte flips,
// truncations, duplicated, dropped and swapped lines, bad ops and bad
// priorities applied to a valid journal.  Opening the mutated log must
// either succeed -- with every live row holding weights -- or throw
// IoError; any other exception, or a crash, fails.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "radixnet/graph_challenge.hpp"
#include "store/artifact.hpp"
#include "store/journal.hpp"
#include "support/error.hpp"
#include "support/random.hpp"

namespace radix {
namespace {

const char* const kValidLog =
    "radix-journal v1\n"
    "add\ta\ta.radixart\t0\n"
    "add\tb\tb.radixart\t1\n"
    "swap\ta\ta2.radixart\t0\n"
    "remove\tb\n"
    "add\tc\tc.radixart\t2\n"
    "tombstone\tc\n"
    "add\tb\tb.radixart\t2\n";

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& line : lines) text += line + '\n';
  return text;
}

template <std::size_t N>
const char* pick(Rng& rng, const char* const (&options)[N]) {
  return options[rng.uniform(N)];
}

std::string mutate(std::string text, Rng& rng) {
  static const char* const kOps[] = {"add",  "swap", "remove", "tombstone",
                                     "ADD",  "",     "frob",   "add\tadd",
                                     "swap\t"};
  static const char* const kPriorities[] = {"-1", "3",  "255", "9000", "",
                                            "x",  "1 ", " 1",  "01",   "2"};
  auto lines = split_lines(text);
  const std::uint64_t kind = rng.uniform(7);
  if (kind >= 2 && lines.empty()) return text;
  switch (kind) {
    case 0:  // flip bytes
      for (std::uint64_t i = 0, n = 1 + rng.uniform(4); i < n; ++i) {
        if (text.empty()) break;
        text[rng.uniform(text.size())] = static_cast<char>(rng.uniform(256));
      }
      return text;
    case 1:  // truncate
      return text.substr(0, rng.uniform(text.size() + 1));
    case 2:  // duplicate a line
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       rng.uniform(lines.size() + 1)),
                   lines[rng.uniform(lines.size())]);
      break;
    case 3:  // drop a line
      lines.erase(lines.begin() +
                  static_cast<std::ptrdiff_t>(rng.uniform(lines.size())));
      break;
    case 4:  // swap two lines
      std::swap(lines[rng.uniform(lines.size())],
                lines[rng.uniform(lines.size())]);
      break;
    case 5: {  // replace an op
      auto& line = lines[rng.uniform(lines.size())];
      line = pick(rng, kOps) + line.substr(std::min(line.find('\t'),
                                                    line.size()));
      break;
    }
    default: {  // replace a priority
      auto& line = lines[rng.uniform(lines.size())];
      const auto tab = line.rfind('\t');
      if (tab != std::string::npos) {
        line = line.substr(0, tab + 1) + pick(rng, kPriorities);
      }
      break;
    }
  }
  return join_lines(lines);
}

class JournalFuzz : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    dir_ = "radixnet_journal_fuzz_" + std::to_string(::getpid()) + "_" +
           std::to_string(GetParam());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    Rng rng(3);
    const auto net = gc::network(1024, 2, &rng);
    const infer::SparseDnn dnn(net.layers, net.bias, gc::kClamp);
    for (const char* file : {"a.radixart", "a2.radixart", "b.radixart",
                             "c.radixart"}) {
      store::save_artifact(dir_ + "/" + file, dnn, file);
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_P(JournalFuzz, OpensOrThrowsIoError) {
  {
    // The unmutated log is valid: the fuzzing starts from a success.
    std::ofstream(dir_ + "/journal") << kValidLog;
    store::RegistryJournal log(dir_);
    ASSERT_EQ(log.rows().size(), 4u);
  }
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 17);
  int opened = 0;
  for (int round = 0; round < 40; ++round) {
    std::string text = kValidLog;
    for (std::uint64_t m = 0, n = 1 + rng.uniform(3); m < n; ++m) {
      text = mutate(std::move(text), rng);
    }
    std::ofstream(dir_ + "/journal", std::ios::trunc) << text;
    SCOPED_TRACE(text);
    try {
      store::RegistryJournal log(dir_);
      for (const auto& row : log.rows()) {
        EXPECT_EQ(row.retired, row.dnn == nullptr) << row.name;
      }
      ++opened;
    } catch (const IoError&) {
      // A typed refusal is the other accepted outcome.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped error: " << e.what();
    }
  }
  RecordProperty("opened", opened);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalFuzz, ::testing::Range(0, 16));

}  // namespace
}  // namespace radix
