// The RADIXART binary model-artifact format.
//
// A model artifact is one file holding everything needed to serve a
// SparseDnn: the per-layer CSR weight arrays (or, for spec-only
// artifacts, the mixed-radix spec that regenerates them), the per-layer
// biases, the clamp, and a model name.  The layout is designed for
// *zero-copy* loading: every payload starts on a 64-byte boundary, so
// an mmap'd artifact's rowptr/colidx/values arrays are handed to the
// fused SpMM kernels as CsrFloatView spans directly -- no deserialize
// pass, no per-edge copies.
//
// File layout (all integers little-endian, fixed-width):
//
//       offset 0                64              64 + 64*S        (64-aligned)
//       +----------------+----------------------+--------+----------------+
//       |  FileHeader    |  SectionEntry x S    |  pad   |  payloads ...  |
//       |  (64 bytes)    |  (64 bytes each)     |        |  (64-aligned)  |
//       +----------------+----------------------+--------+----------------+
//
//   FileHeader (64 bytes)
//       magic[8]        "RADIXART"
//       version   u32   format version (currently 1)
//       flags     u32   bit 0: spec-only artifact
//       sections  u32   number of SectionEntry records
//       reserved  u32   zero
//       file_size u64   total file size in bytes (truncation check)
//       header_hash u64 XXH64 over header + section table with this
//                       field zeroed (bit-flip check on the metadata)
//       pad[24]         zero
//
//   SectionEntry (64 bytes)
//       kind      u32   SectionKind below
//       layer     u32   layer index for per-layer sections, else kNoLayer
//       offset    u64   payload offset from file start (64-byte aligned)
//       size      u64   payload size in bytes
//       hash      u64   XXH64 of the payload bytes
//       count     u64   element count (e.g. rows+1 for kRowPtr)
//       elem_size u32   bytes per element (8 / 4 / 1)
//       pad[20]         zero
//
// Sections of a full-CSR artifact: one kMeta (name, clamp, layer
// count), one kLayerDims (u32 rows, cols per layer), one kBiases
// (f32 per layer), and per layer one kRowPtr (u64[rows+1]), kColIdx
// (u32[nnz]) and kValues (f32[nnz]).  A spec-only artifact replaces the
// per-layer CSR sections with one kSpec (the radixnet-spec v1 text, see
// radixnet/serialize.hpp) plus one kLayerWeights (f32 uniform weight
// per layer): the paper's core observation is that a RadiX-Net is fully
// determined by its mixed-radix spec, so the artifact ships the spec
// instead of the edges and the loader regenerates the topology through
// radixnet::builder (deterministic; column-shuffled networks cannot use
// this variant -- the shuffle is not part of the spec).
//
// Integrity: readers verify magic, version, the header hash, the
// file_size field against the actual size, section bounds/alignment,
// and every payload hash -- eagerly, before any data is interpreted;
// instantiate() then checks the layer shapes (chained, at most
// kMaxLayerWidth wide) and the CSR invariants -- for a spec-only
// artifact, the widths and total edge count the spec asks the builder
// for (at most kMaxSpecEdges), before anything is built.  Violations
// throw the
// typed errors below (all IoError subclasses), so a serving daemon can
// distinguish "file corrupt" from "file missing".
// Writers commit via write-to-temp + fsync + atomic rename, so a crash
// mid-save never leaves a half-written artifact under the final name.
#pragma once

#include <bit>
#include <cstdint>

#include "support/error.hpp"

namespace radix::store {

// The on-disk arrays are viewed in place, so the file byte order is the
// host byte order; the format is defined as little-endian.
static_assert(std::endian::native == std::endian::little,
              "RADIXART artifacts are little-endian");

/// Malformed artifact: bad magic/version/section table, or mapped CSR
/// arrays violating the CSR invariants.
class FormatError : public IoError {
 public:
  explicit FormatError(const std::string& what)
      : IoError("artifact format: " + what) {}
};

/// A section (or the header) hash does not match -- bit rot, torn
/// write, or tampering.
class ChecksumError : public IoError {
 public:
  explicit ChecksumError(const std::string& what)
      : IoError("artifact checksum: " + what) {}
};

/// The file is shorter than its header or section table claims.
class TruncatedError : public IoError {
 public:
  explicit TruncatedError(const std::string& what)
      : IoError("artifact truncated: " + what) {}
};

inline constexpr char kMagic[8] = {'R', 'A', 'D', 'I', 'X', 'A', 'R', 'T'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::uint64_t kSectionAlign = 64;
inline constexpr std::uint32_t kFlagSpecOnly = 1u << 0;
inline constexpr std::uint32_t kNoLayer = 0xffffffffu;
/// Widest layer (rows or cols) a reader accepts: 256x the largest
/// Graph-Challenge width (65536).  A declared width is what the forward
/// pass allocates per batch row, so a corrupt one must not reach it.
inline constexpr std::uint32_t kMaxLayerWidth = 1u << 24;
/// Most edges a spec-only artifact may build (sum over layers of
/// N' * N_i * D_{i-1} * D_i).  The spec is a few bytes that the builder
/// turns into ~9 bytes of CSR per edge, so a corrupt one must not reach
/// it; 2^28 admits the challenge's width-65536 network at 128 layers.
inline constexpr std::uint64_t kMaxSpecEdges = 1ull << 28;

enum class SectionKind : std::uint32_t {
  kMeta = 1,          // name + clamp + layer count
  kSpec = 2,          // radixnet-spec v1 text (spec-only artifacts)
  kBiases = 3,        // f32[layer_count]
  kLayerDims = 4,     // u32 rows, u32 cols per layer
  kRowPtr = 5,        // u64[rows+1], per layer
  kColIdx = 6,        // u32[nnz], per layer
  kValues = 7,        // f32[nnz], per layer
  kLayerWeights = 8,  // f32[layer_count] uniform weights (spec-only)
};

struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t flags;
  std::uint32_t section_count;
  std::uint32_t reserved;
  std::uint64_t file_size;
  std::uint64_t header_hash;
  std::uint8_t pad[24];
};
static_assert(sizeof(FileHeader) == 64, "FileHeader must be 64 bytes");

struct SectionEntry {
  std::uint32_t kind;
  std::uint32_t layer;
  std::uint64_t offset;
  std::uint64_t size;
  std::uint64_t hash;
  std::uint64_t count;
  std::uint32_t elem_size;
  std::uint8_t pad[20];
};
static_assert(sizeof(SectionEntry) == 64, "SectionEntry must be 64 bytes");

}  // namespace radix::store
