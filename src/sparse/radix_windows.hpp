// Implicit gather inputs of a RadiX-Net layer.
//
// By paper eq. (1) every mixed-radix layer is W = sum_{j<N} P^{j*nu}
// over N' nodes, so the inputs of any output neuron c form one cyclic
// arithmetic progression: stride nu, length N, modulo N'.  The
// Graph-Challenge shuffle W <- W * Pi only relabels outputs, so every
// output still reads such a window -- only its first input moves.  A
// RadixWindows table stores exactly that: one first input per output
// plus the layer's (stride, degree, modulus), 4 bytes per output in
// place of a transposed copy's degree * 8 bytes.
//
// Output c reads inputs (start[c] + stride * t) mod modulus for t in
// [0, degree), a window shorter than one turn (stride * (degree - 1) <
// modulus, as nu * N <= N' in eq. (1)), so it wraps at most once.  When
// it wraps, the inputs that wrapped are the smallest, so for_each_input
// walks the low (wrapped) run first and the high run second: inputs
// arrive in ascending order, the accumulation order every fused kernel
// keeps (sparse/spmm.hpp).
//
// find_radix_windows proves, rather than guesses, that a layer has this
// shape: one pass over W's CSR summarizes each output's ascending input
// sequence (its gaps and where they occur), and the table is returned
// only if every output's sequence equals its window exactly.  Layers
// with any other structure -- the D > 1 Kronecker stage on a partial
// window, X-Nets, random CSR, a single moved or missing edge -- yield
// nullopt and keep the explicit W^T gather.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sparse/csr_view.hpp"
#include "sparse/types.hpp"

namespace radix {

/// Calls edge(i) for each input i of the window whose first input is s,
/// in ascending order: the low (wrapped) run first, then the high run
/// (i is passed as std::size_t so a caller's address arithmetic on it
/// strength-reduces to a pointer step).
template <class Edge>
void walk_window(index_t s, index_t stride, index_t degree, index_t modulus,
                 Edge&& edge) {
  // Inputs s + stride * t below the modulus form the high run.
  //
  // Both runs are unrolled 4 edges per trip.  A 1-lane edge is one load
  // and one add, so a one-edge loop is only ~15 bytes and its speed
  // hangs on where the linker puts it: straddling a 64-byte line, it
  // ran a 1-row width-1024 forward ~1.5x slower on an AVX-512 Xeon.
  // Four dependent adds per trip cover that fetch cost wherever the
  // loop lands.
  const index_t high = std::min(degree, (modulus - s - 1) / stride + 1);
  std::size_t i = std::size_t{s} + std::size_t{stride} * high - modulus;
#pragma GCC unroll 4
  for (index_t t = high; t < degree; ++t, i += stride) edge(i);
  i = s;
#pragma GCC unroll 4
  for (index_t t = 0; t < high; ++t, i += stride) edge(i);
}

struct RadixWindows {
  std::vector<index_t> start;  ///< first input (t = 0) of each output
  index_t stride = 0;          ///< nu: distance between consecutive inputs
  index_t degree = 0;          ///< in-degree of every output
  index_t modulus = 0;         ///< input width the window wraps around

  index_t outputs() const noexcept {
    return static_cast<index_t>(start.size());
  }

  /// Calls edge(i) for each input i of output c, in ascending order.
  template <class Edge>
  void for_each_input(index_t c, Edge&& edge) const {
    walk_window(start[c], stride, degree, modulus, edge);
  }
};

/// The window table of `w` (rows = inputs, cols = outputs) when every
/// output's input set is exactly one eq. (1) window of a common stride
/// and degree; nullopt otherwise (including empty layers).  Reads only
/// the sparsity pattern: the caller decides whether the values allow an
/// implicit gather (they must be uniform).
std::optional<RadixWindows> find_radix_windows(const CsrFloatView& w);

}  // namespace radix
