#include "sparse/radix_windows.hpp"

namespace radix {
namespace {

// One output's ascending input sequence x_0 < ... < x_{d-1}, summarized
// by its gaps x_k - x_{k-1}: at most two distinct gap values, how often
// each occurred, and the input right after each one's first occurrence.
// A third distinct gap already rules out a window.
struct Trace {
  index_t count = 0;
  index_t first = 0;
  index_t last = 0;
  index_t gap[2] = {0, 0};
  index_t seen[2] = {0, 0};
  index_t after[2] = {0, 0};

  bool add(index_t x) {
    if (count++ == 0) {
      first = last = x;
      return true;
    }
    const index_t g = x - last;
    last = x;
    for (int i = 0; i < 2; ++i) {
      if (seen[i] == 0) {
        gap[i] = g;
        after[i] = x;
      }
      if (gap[i] == g) {
        ++seen[i];
        return true;
      }
    }
    return false;
  }

  // The window start if this sequence is {(s + nu*t) mod m : t < d}.
  // Either every gap is nu (no wrap: s = x_0), or exactly one gap
  // differs -- the jump from the wrapped low run up to s -- and the
  // sequence closes around the modulus: x_{d-1} + nu - m == x_0.
  std::optional<index_t> start(std::uint64_t nu, std::uint64_t m) const {
    if (count == 1) return first;
    std::uint64_t odd = 0;
    index_t jump_to = first;
    for (int i = 0; i < 2; ++i) {
      if (seen[i] != 0 && gap[i] != nu) {
        odd += seen[i];
        jump_to = after[i];
      }
    }
    if (odd == 0) return first;
    if (odd == 1 && std::uint64_t{first} + m - last == nu) return jump_to;
    return std::nullopt;
  }
};

}  // namespace

std::optional<RadixWindows> find_radix_windows(const CsrFloatView& w) {
  const index_t m = w.rows();
  const index_t n = w.cols();
  if (n == 0 || w.nnz() == 0 || w.nnz() % n != 0) return std::nullopt;
  const std::uint64_t d = w.nnz() / n;
  const auto rowptr = w.rowptr();
  const auto colind = w.colind();

  // One pass over W's rows in ascending input order: each output sees
  // its inputs in ascending order, exactly the sequence a W^T row holds.
  // No output may exceed d inputs, and the counts sum to n * d, so every
  // output ends with exactly d.
  std::vector<Trace> traces(n);
  for (index_t r = 0; r < m; ++r) {
    for (offset_t k = rowptr[r]; k < rowptr[r + 1]; ++k) {
      Trace& t = traces[colind[k]];
      if (t.count == d || !t.add(r)) return std::nullopt;
    }
  }

  // The stride is a layer constant.  Output 0 leaves at most three
  // candidates -- either gap, or the closing distance around the
  // modulus -- and one of them must fit every output.
  const Trace& t0 = traces[0];
  std::vector<std::uint64_t> candidates = {1};
  if (d > 1) {
    candidates = {t0.gap[0], std::uint64_t{t0.first} + m - t0.last};
    if (t0.seen[1] != 0) candidates.push_back(t0.gap[1]);
  }
  for (const std::uint64_t nu : candidates) {
    RadixWindows win{.start = {},
                     .stride = static_cast<index_t>(nu),
                     .degree = static_cast<index_t>(d),
                     .modulus = m};
    win.start.reserve(n);
    for (const Trace& t : traces) {
      const auto s = t.start(nu, m);
      if (!s) break;
      win.start.push_back(*s);
    }
    if (win.start.size() == n) return win;
  }
  return std::nullopt;
}

}  // namespace radix
