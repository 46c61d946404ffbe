#include "radixnet/builder.hpp"

#include <algorithm>
#include <limits>

#include "support/error.hpp"
#include "support/parallel.hpp"

namespace radix {

namespace {

// One edge layer W = 1_{d_in x d_out} (x) sum_{n<radix} P^{n*pv} on
// `nodes` nodes, reduced to what the fill needs.
struct LayerPlan {
  index_t nodes = 0;
  index_t d_in = 1;
  index_t d_out = 1;
  std::vector<index_t> offsets;  // distinct n*pv mod nodes, ascending
};

std::vector<LayerPlan> plan_layers(const RadixNetSpec& spec) {
  constexpr std::uint64_t kMaxIndex = std::numeric_limits<index_t>::max();
  RADIX_REQUIRE(spec.n_prime() <= kMaxIndex,
                "build_radix_net: N' exceeds index range");
  for (const std::uint64_t width : spec.layer_widths()) {
    RADIX_REQUIRE(width <= kMaxIndex,
                  "build_radix_net: layer width D_i * N' exceeds index "
                  "range");
  }
  const auto nodes = static_cast<index_t>(spec.n_prime());
  const auto& d = spec.dense_widths();
  std::vector<LayerPlan> plans;
  plans.reserve(spec.total_radices());
  // Fig 6 outer loop: for each system, one layer per radix with the
  // place value (pv) restarting at 1 per system.
  for (const auto& system : spec.systems()) {
    std::uint64_t pv = 1;
    for (const std::uint32_t radix_value : system.radices()) {
      LayerPlan p;
      p.nodes = nodes;
      p.d_in = d[plans.size()];
      p.d_out = d[plans.size() + 1];
      p.offsets.reserve(radix_value);
      for (std::uint32_t n = 0; n < radix_value; ++n) {
        p.offsets.push_back(static_cast<index_t>((n * pv) % nodes));
      }
      std::sort(p.offsets.begin(), p.offsets.end());
      p.offsets.erase(std::unique(p.offsets.begin(), p.offsets.end()),
                      p.offsets.end());
      plans.push_back(std::move(p));
      pv *= radix_value;
    }
  }
  return plans;
}

// Block 0 of the columns: rows r of the first D-block, each holding its
// d_out * |offsets| columns in ascending order.  Row r reaches
// (r + o) mod nodes for every offset o; offsets >= nodes - r wrap to
// the front, so each D-block of the row is the wrapped run, then the
// rest.
void fill_plain(const LayerPlan& p, index_t* colind) {
  const index_t n = p.nodes;
  for (index_t r = 0; r < n; ++r) {
    const auto split =
        std::lower_bound(p.offsets.begin(), p.offsets.end(), n - r);
    for (index_t j = 0; j < p.d_out; ++j) {
      const index_t base = j * n + r;
      for (auto it = split; it != p.offsets.end(); ++it) {
        *colind++ = base + *it - n;
      }
      for (auto it = p.offsets.begin(); it != split; ++it) {
        *colind++ = base + *it;
      }
    }
  }
}

// The same rows after renaming column c to shuffle[c]: walk the new ids
// c' in ascending order and append c' to every input row of the column
// it names -- rows (c - o) mod nodes -- so each row fills sorted.
void fill_shuffled(const LayerPlan& p, std::span<const index_t> shuffle,
                   std::size_t per_row, index_t* colind) {
  const index_t n = p.nodes;
  const index_t cols = p.d_out * n;
  RADIX_REQUIRE(shuffle.size() == cols,
                "build_radix_net: shuffle size does not match the layer");
  std::vector<index_t> from(cols, cols);  // from[c'] = c
  for (index_t c = 0; c < cols; ++c) {
    const index_t to = shuffle[c];
    RADIX_REQUIRE(to < cols && from[to] == cols,
                  "build_radix_net: shuffle is not a permutation");
    from[to] = c;
  }
  std::vector<index_t*> cursor(n);
  for (index_t r = 0; r < n; ++r) cursor[r] = colind + r * per_row;
  for (index_t to = 0; to < cols; ++to) {
    const index_t c = from[to] % n;
    for (const index_t o : p.offsets) {
      *cursor[o <= c ? c - o : c + n - o]++ = to;
    }
  }
}

template <typename T>
Csr<T> emit_layer(const LayerPlan& p, T value,
                  std::span<const index_t> shuffle) {
  const index_t n = p.nodes;
  const index_t rows = p.d_in * n;
  const std::size_t per_row = p.offsets.size() * p.d_out;
  const std::size_t block = static_cast<std::size_t>(n) * per_row;
  std::vector<offset_t> rowptr(static_cast<std::size_t>(rows) + 1);
  for (index_t r = 0; r <= rows; ++r) rowptr[r] = r * per_row;
  std::vector<index_t> colind(static_cast<std::size_t>(p.d_in) * block);
  if (shuffle.empty()) {
    fill_plain(p, colind.data());
  } else {
    fill_shuffled(p, shuffle, per_row, colind.data());
  }
  // The ones factor repeats the first D-block's rows d_in times.
  for (index_t i = 1; i < p.d_in; ++i) {
    std::copy_n(colind.begin(), block, colind.begin() + i * block);
  }
  std::vector<T> val(colind.size(), value);
  return Csr<T>(rows, p.d_out * n, std::move(rowptr), std::move(colind),
                std::move(val));
}

}  // namespace

template <typename T>
std::vector<Csr<T>> radix_net_layers(
    const RadixNetSpec& spec, std::span<const T> values,
    std::span<const std::vector<index_t>> shuffles) {
  const std::vector<LayerPlan> plans = plan_layers(spec);
  RADIX_REQUIRE(values.size() == plans.size(),
                "build_radix_net: need one value per layer");
  RADIX_REQUIRE(shuffles.empty() || shuffles.size() == plans.size(),
                "build_radix_net: need one shuffle per layer");
  std::int64_t edges = 0;
  for (const LayerPlan& p : plans) {
    edges += static_cast<std::int64_t>(p.d_in) * p.d_out * p.nodes *
             static_cast<std::int64_t>(p.offsets.size());
  }
  std::vector<Csr<T>> layers(plans.size());
  parallel_for_rethrow(
      0, static_cast<std::int64_t>(plans.size()),
      [&](std::int64_t i) {
        layers[i] = emit_layer<T>(
            plans[i], values[i],
            shuffles.empty() ? std::span<const index_t>{} : shuffles[i]);
      },
      grain_for_cost(edges / static_cast<std::int64_t>(plans.size())));
  return layers;
}

template std::vector<Csr<pattern_t>> radix_net_layers(
    const RadixNetSpec&, std::span<const pattern_t>,
    std::span<const std::vector<index_t>>);
template std::vector<Csr<float>> radix_net_layers(
    const RadixNetSpec&, std::span<const float>,
    std::span<const std::vector<index_t>>);

Fnnt build_extended_mixed_radix(const RadixNetSpec& spec) {
  return build_radix_net(RadixNetSpec::extended(spec.systems()));
}

Fnnt build_radix_net(const RadixNetSpec& spec) {
  const std::vector<pattern_t> ones(spec.total_radices(), 1);
  return Fnnt(radix_net_layers<pattern_t>(spec, ones));
}

Fnnt build_radix_net(const std::vector<std::vector<std::uint32_t>>& systems,
                     const std::vector<std::uint32_t>& d) {
  std::vector<MixedRadix> sys;
  sys.reserve(systems.size());
  for (const auto& radices : systems) sys.emplace_back(radices);
  return build_radix_net(RadixNetSpec(std::move(sys), d));
}

}  // namespace radix
