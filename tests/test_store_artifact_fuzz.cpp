// Seeded mutation fuzzing of the RADIXART reader: byte flips,
// truncations, edits to the declared layer shapes and to the section
// table's offset, length, count, element-size and alignment fields,
// applied to a valid full-CSR artifact.  Half of the mutants are
// re-sealed -- every in-bounds section hash, the file size and the
// header hash recomputed -- so the bounds, alignment, shape and CSR
// checks behind the checksums run too.  A mutant must either open,
// instantiate and run a forward pass, or throw IoError; any other
// exception, or a crash, fails.
//
// Spec-only artifacts get their own mutants: edits to the spec text
// (characters, whole numbers, grown numbers, commented-out lines),
// written back into the spec section and re-sealed, so the spec parser
// and the size cap in front of the builder (store::kMaxSpecEdges) run
// on every one.  A spec asking for a network past the cap must be
// refused before anything is built.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "infer/sparse_dnn.hpp"
#include "radixnet/spec.hpp"
#include "store/artifact.hpp"
#include "store/checksum.hpp"
#include "store/format.hpp"
#include "support/error.hpp"
#include "support/random.hpp"

namespace radix {
namespace {

using Bytes = std::vector<std::uint8_t>;

// Three 32 x 32 layers, four edges per row, non-uniform weights: small
// enough for thousands of rounds, with every section kind of a
// full-CSR artifact present.
infer::SparseDnn small_dnn() {
  std::vector<Csr<float>> layers;
  for (index_t k = 0; k < 3; ++k) {
    std::vector<offset_t> rowptr{0};
    std::vector<index_t> colidx;
    std::vector<float> values;
    for (index_t r = 0; r < 32; ++r) {
      for (index_t e = 0; e < 4; ++e) {
        colidx.push_back((r + e * 8 + k) % 32);
        values.push_back(0.125f + 0.0625f * static_cast<float>((r + e) % 3));
      }
      std::sort(colidx.end() - 4, colidx.end());
      rowptr.push_back(colidx.size());
    }
    layers.emplace_back(32, 32, std::move(rowptr), std::move(colidx),
                        std::move(values));
  }
  return infer::SparseDnn(std::move(layers), {-0.1f, -0.2f, -0.3f}, 32.0f);
}

// A small spec-only network: two (4,4) systems on N' = 16 with one
// dense width of 2, so the Kronecker stage is in play.
RadixNetSpec small_spec() {
  return RadixNetSpec({MixedRadix({4, 4}), MixedRadix({4, 4})},
                      {1, 2, 1, 1, 1});
}

void save_small_spec(const std::string& path, const RadixNetSpec& spec) {
  const std::vector<float> weights(spec.total_radices(), 0.25f);
  const std::vector<float> biases(spec.total_radices(), -0.05f);
  store::save_spec_artifact(path, spec, weights, biases, 32.0f, "spec");
}

Bytes slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// The section table as it sits in `bytes`, clipped to what the file
// holds.
std::size_t table_entries(const Bytes& bytes) {
  if (bytes.size() < sizeof(store::FileHeader)) return 0;
  store::FileHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  const std::size_t fit =
      (bytes.size() - sizeof(h)) / sizeof(store::SectionEntry);
  return std::min<std::size_t>(h.section_count, fit);
}

store::SectionEntry entry(const Bytes& bytes, std::size_t i) {
  store::SectionEntry s;
  std::memcpy(&s, bytes.data() + sizeof(store::FileHeader) + i * sizeof(s),
              sizeof(s));
  return s;
}

void put_entry(Bytes& bytes, std::size_t i, const store::SectionEntry& s) {
  std::memcpy(bytes.data() + sizeof(store::FileHeader) + i * sizeof(s), &s,
              sizeof(s));
}

// Recompute what a writer would have: every in-bounds section hash,
// the file size, then the header hash over header + table.
void reseal(Bytes& bytes) {
  if (bytes.size() < sizeof(store::FileHeader)) return;
  const std::size_t n = table_entries(bytes);
  for (std::size_t i = 0; i < n; ++i) {
    store::SectionEntry s = entry(bytes, i);
    if (s.offset <= bytes.size() && s.size <= bytes.size() - s.offset) {
      s.hash = store::xxh64(bytes.data() + s.offset, s.size);
      put_entry(bytes, i, s);
    }
  }
  store::FileHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  h.file_size = bytes.size();
  h.header_hash = 0;
  std::memcpy(bytes.data(), &h, sizeof(h));
  const std::size_t table_end =
      sizeof(store::FileHeader) +
      static_cast<std::size_t>(h.section_count) * sizeof(store::SectionEntry);
  if (table_end > bytes.size()) return;
  h.header_hash = store::xxh64(bytes.data(), table_end);
  std::memcpy(bytes.data(), &h, sizeof(h));
}

std::uint64_t edited(std::uint64_t value, std::uint64_t file_size, Rng& rng) {
  switch (rng.uniform(8)) {
    case 0: return value + 1 + rng.uniform(63);  // misaligned / off by k
    case 1: return value - 1 - rng.uniform(63);
    case 2: return value + 64 * (1 + rng.uniform(4));
    case 3: return value * 2;
    case 4: return file_size + rng.uniform(128);
    case 5: return 0;
    case 6: return std::numeric_limits<std::uint64_t>::max() - rng.uniform(64);
    default: return rng.next_u64();
  }
}

void mutate(Bytes& bytes, Rng& rng) {
  const std::size_t n = table_entries(bytes);
  const std::uint64_t kind = rng.uniform(7);
  if (kind >= 2 && n == 0) return;
  switch (kind) {
    case 0:  // flip bytes anywhere
      for (std::uint64_t i = 0, k = 1 + rng.uniform(4); i < k; ++i) {
        if (bytes.empty()) break;
        bytes[rng.uniform(bytes.size())] ^=
            static_cast<std::uint8_t>(1 + rng.uniform(255));
      }
      return;
    case 1:  // truncate
      bytes.resize(rng.uniform(bytes.size() + 1));
      return;
    case 2: {  // flip a byte inside one section's payload
      const store::SectionEntry s = entry(bytes, rng.uniform(n));
      if (s.size == 0 || s.offset > bytes.size() ||
          s.size > bytes.size() - s.offset) {
        return;
      }
      bytes[s.offset + rng.uniform(s.size)] ^=
          static_cast<std::uint8_t>(1 + rng.uniform(255));
      return;
    }
    case 3: {  // edit one declared layer dimension
      constexpr auto kDims =
          static_cast<std::uint32_t>(store::SectionKind::kLayerDims);
      for (std::size_t i = 0; i < n; ++i) {
        const store::SectionEntry s = entry(bytes, i);
        if (s.kind != kDims || s.size < 4 || s.offset > bytes.size() ||
            s.size > bytes.size() - s.offset) {
          continue;
        }
        const std::size_t at = s.offset + 4 * rng.uniform(s.size / 4);
        std::uint32_t dim;
        std::memcpy(&dim, bytes.data() + at, sizeof(dim));
        dim = static_cast<std::uint32_t>(edited(dim, bytes.size(), rng));
        std::memcpy(bytes.data() + at, &dim, sizeof(dim));
        return;
      }
      return;
    }
    default: {  // edit one section-table field
      const std::size_t i = rng.uniform(n);
      store::SectionEntry s = entry(bytes, i);
      switch (rng.uniform(5)) {
        case 0:
          s.offset = edited(s.offset, bytes.size(), rng);
          break;
        case 1:  // a length edit that keeps count consistent half the time
          s.size = edited(s.size, bytes.size(), rng);
          if (rng.uniform(2) == 0 && s.elem_size != 0) {
            s.count = s.size / s.elem_size;
          }
          break;
        case 2:
          s.count = edited(s.count, bytes.size(), rng);
          break;
        case 3:
          s.elem_size = static_cast<std::uint32_t>(rng.uniform(9));
          break;
        default:  // point it at another section's payload
          s.offset = entry(bytes, rng.uniform(n)).offset;
          break;
      }
      put_entry(bytes, i, s);
      return;
    }
  }
}

// One edit to the spec text of a spec-only artifact, written back into
// the spec section's slot (up to the next section) with its size and
// count updated; false when the edited text no longer fits.  The caller
// re-seals.
bool mutate_spec(Bytes& bytes, Rng& rng) {
  constexpr auto kSpec = static_cast<std::uint32_t>(store::SectionKind::kSpec);
  const std::size_t n = table_entries(bytes);
  for (std::size_t i = 0; i < n; ++i) {
    store::SectionEntry s = entry(bytes, i);
    if (s.kind != kSpec) continue;
    std::uint64_t slot_end = bytes.size();
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t o = entry(bytes, j).offset;
      if (o > s.offset) slot_end = std::min(slot_end, o);
    }
    std::string text(reinterpret_cast<const char*>(bytes.data() + s.offset),
                     s.size);
    static const char kChars[] = "0123456789,|: #\nDx";
    static const char* const kNumbers[] = {
        "0", "1", "3", "16", "4096", "4294967295", "4294967296",
        "99999999999999999999"};
    const std::size_t at = rng.uniform(text.size());
    switch (rng.uniform(4)) {
      case 0:  // one character
        text[at] = kChars[rng.uniform(sizeof(kChars) - 1)];
        break;
      case 1: {  // the number under (or after) `at`, replaced whole
        std::size_t b = text.find_first_of("0123456789", at);
        if (b == std::string::npos) return false;
        while (b > 0 && std::isdigit(static_cast<unsigned char>(text[b - 1]))) {
          --b;
        }
        const std::size_t e = text.find_first_not_of("0123456789", b);
        text.replace(b, e - b, kNumbers[rng.uniform(std::size(kNumbers))]);
        break;
      }
      case 2:  // a number grown by one digit
        text.insert(at, 1, static_cast<char>('0' + rng.uniform(10)));
        break;
      default:  // the rest of a line commented out
        text.insert(at, 1, '#');
        break;
    }
    if (text.size() > slot_end - s.offset) return false;
    std::fill(bytes.begin() + s.offset, bytes.begin() + slot_end, 0);
    std::memcpy(bytes.data() + s.offset, text.data(), text.size());
    s.size = s.count = text.size();
    put_entry(bytes, i, s);
    return true;
  }
  return false;
}

class ArtifactFuzz : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    dir_ = "radixnet_artifact_fuzz_" + std::to_string(::getpid()) + "_" +
           std::to_string(GetParam());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    store::save_artifact(dir_ + "/valid.radixart", small_dnn(), "fuzz");
    valid_ = slurp(dir_ + "/valid.radixart");
    save_small_spec(dir_ + "/spec.radixart", small_spec());
    valid_spec_ = slurp(dir_ + "/spec.radixart");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Opens, instantiates and runs one row through `path`; false when the
  // reader refuses it with an IoError, a test failure on anything else.
  bool opens_and_runs(const std::string& path) {
    try {
      const store::ArtifactReader reader(path);
      const infer::SparseDnn dnn = reader.instantiate();
      const std::vector<float> x(dnn.input_width(), 1.0f);
      EXPECT_EQ(dnn.forward(x, 1).size(), dnn.output_width());
      return true;
    } catch (const IoError&) {
      // A typed refusal is the other accepted outcome.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped error: " << e.what();
    }
    return false;
  }

  std::string dir_;
  Bytes valid_;
  Bytes valid_spec_;
};

TEST_P(ArtifactFuzz, OpensAndRunsOrThrowsIoError) {
  const std::vector<float> input(32, 1.0f);
  {
    // The unmutated artifact is valid: the fuzzing starts from a success.
    const store::ArtifactReader reader(dir_ + "/valid.radixart");
    EXPECT_EQ(reader.instantiate().forward(input, 1).size(), 32u);
  }
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 31);
  const std::string path = dir_ + "/mutant.radixart";
  int opened = 0;
  for (int round = 0; round < 64; ++round) {
    Bytes bytes = valid_;
    for (std::uint64_t m = 0, k = 1 + rng.uniform(3); m < k; ++m) {
      mutate(bytes, rng);
    }
    const bool sealed = round % 2 == 0;
    if (sealed) reseal(bytes);
    spit(path, bytes);
    SCOPED_TRACE("round " + std::to_string(round) +
                 (sealed ? " (re-sealed)" : ""));
    opened += opens_and_runs(path);
  }
  RecordProperty("opened", opened);
}

TEST_P(ArtifactFuzz, SpecOnlyOpensAndRunsOrThrowsIoError) {
  ASSERT_TRUE(opens_and_runs(dir_ + "/spec.radixart"));
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7727 + 5);
  const std::string path = dir_ + "/spec_mutant.radixart";
  int opened = 0;
  for (int round = 0; round < 64; ++round) {
    Bytes bytes = valid_spec_;
    for (std::uint64_t m = 0, k = 1 + rng.uniform(3); m < k; ++m) {
      (void)mutate_spec(bytes, rng);
    }
    // One in four also takes a structural mutation.
    if (rng.uniform(4) == 0) mutate(bytes, rng);
    reseal(bytes);
    spit(path, bytes);
    SCOPED_TRACE("round " + std::to_string(round));
    opened += opens_and_runs(path);
  }
  RecordProperty("opened", opened);
}

TEST(ArtifactSpecCap, OversizedSpecsAreRefusedBeforeBuilding) {
  const std::string dir =
      "radixnet_artifact_spec_cap_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/big.radixart";
  const auto refused = [&](const RadixNetSpec& spec) {
    save_small_spec(path, spec);
    const store::ArtifactReader reader(path);
    EXPECT_THROW((void)reader.instantiate(), store::FormatError)
        << spec.to_string();
  };
  // N' = 256, layer widths up to 2^24 (the width cap) but 2^29 edges,
  // twice kMaxSpecEdges: building it would take gigabytes.
  static_assert(store::kMaxSpecEdges == 1ull << 28);
  refused(RadixNetSpec({MixedRadix({16, 16})}, {1, 1u << 16, 1}));
  // One dense width past kMaxLayerWidth.
  refused(RadixNetSpec({MixedRadix({16, 16})}, {1, (1u << 16) + 1, 1}));
  // Widths whose product with N' overflows 64 bits.
  refused(RadixNetSpec({MixedRadix({65536, 65536})},
                       {1, 0xffffffffu, 0xffffffffu}));
  // A width D_i * N' = 2^16 * 2^48 that itself overflows 64 bits.
  refused(RadixNetSpec({MixedRadix({65536, 65536, 65536})},
                       {1, 1, 65536, 1}));
  // The same spec within the caps builds and runs.
  save_small_spec(path, RadixNetSpec({MixedRadix({16, 16})}, {1, 2, 1}));
  const store::ArtifactReader reader(path);
  const infer::SparseDnn dnn = reader.instantiate();
  EXPECT_EQ(dnn.total_nnz(), 2u * 256u * 16u * 2u);
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArtifactFuzz, ::testing::Range(0, 16));

}  // namespace
}  // namespace radix
