// Plain-text serialization of sparse matrices and layer stacks.
//
// Format: Graph-Challenge-style TSV triples, one entry per line,
// 1-based indices:
//     row <tab> col <tab> value
// A leading header line "%%shape rows cols" pins the matrix shape so that
// trailing empty rows/columns round-trip.  Layer stacks are written one
// file per layer plus an index file listing widths.
//
// The readers take untrusted text: every index must be a whole number in
// [1, kMaxTsvDimension], every value must fit a float, and a declared
// shape may not exceed kMaxTsvDimension either way; anything else is an
// IoError naming the file and line, never a wrapped cast or an
// allocation sized by a corrupt number.
#pragma once

#include <string>
#include <vector>

#include "sparse/csr.hpp"

namespace radix {

/// Largest row or column count a TSV matrix may declare or imply: 2^24,
/// the widest layer the model artifact format accepts
/// (store::kMaxLayerWidth).
inline constexpr index_t kMaxTsvDimension = index_t{1} << 24;

/// Write a float CSR matrix as TSV triples.
void write_tsv(const std::string& path, const Csr<float>& m);

/// Write a pattern CSR matrix as TSV triples (value column = 1).
void write_tsv(const std::string& path, const Csr<pattern_t>& m);

/// Read a float CSR matrix written by write_tsv; throws IoError on parse
/// failure.
Csr<float> read_tsv_f32(const std::string& path);

/// Read as a pure connectivity pattern (values ignored).
Csr<pattern_t> read_tsv_pattern(const std::string& path);

/// Serialize a stack of pattern layers to `<prefix>-layerK.tsv` plus a
/// `<prefix>-meta.txt` listing layer count and shapes.
void write_layer_stack(const std::string& prefix,
                       const std::vector<Csr<pattern_t>>& layers);

/// Read back a stack written by write_layer_stack.
std::vector<Csr<pattern_t>> read_layer_stack(const std::string& prefix);

}  // namespace radix
