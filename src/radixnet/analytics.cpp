#include "radixnet/analytics.hpp"

#include <cmath>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace radix {

namespace {

std::uint64_t checked_mul(std::uint64_t a, std::uint64_t b,
                          const char* what) {
  std::uint64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) {
    throw SpecError(std::string(what) + ": count exceeds 64 bits");
  }
  return r;
}

std::uint64_t checked_add(std::uint64_t a, std::uint64_t b,
                          const char* what) {
  std::uint64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) {
    throw SpecError(std::string(what) + ": count exceeds 64 bits");
  }
  return r;
}

}  // namespace

double exact_density(const RadixNetSpec& spec) {
  const auto radices = spec.flattened_radices();
  const auto& d = spec.dense_widths();
  double numer = 0.0, denom = 0.0;
  for (std::size_t i = 0; i < radices.size(); ++i) {
    const double dd = static_cast<double>(d[i]) * d[i + 1];
    numer += radices[i] * dd;
    denom += dd;
  }
  return numer / (denom * static_cast<double>(spec.n_prime()));
}

double approx_density_mu(const RadixNetSpec& spec) {
  return spec.mean_radix() / static_cast<double>(spec.n_prime());
}

double radix_depth(const RadixNetSpec& spec) {
  const double mu = spec.mean_radix();
  RADIX_REQUIRE(mu > 1.0, "radix_depth: mean radix must exceed 1");
  return std::log(static_cast<double>(spec.n_prime())) / std::log(mu);
}

double approx_density_mu_d(double mu, double d) {
  return std::pow(mu, 1.0 - d);
}

BigUInt predicted_path_count(const RadixNetSpec& spec) {
  BigUInt m(1);
  // Each interior boundary between system i and system i+1 multiplies the
  // count by the number of nodes reachable within system i+1's span --
  // its product (Lemma 2's induction, generalized).
  const auto& systems = spec.systems();
  for (std::size_t i = 1; i < systems.size(); ++i) {
    m *= BigUInt(systems[i].product());
  }
  const auto& d = spec.dense_widths();
  for (std::size_t i = 1; i + 1 < d.size(); ++i) {
    m *= BigUInt(d[i]);
  }
  return m;
}

std::uint64_t predicted_edge_count(const RadixNetSpec& spec) {
  constexpr const char* kWhat = "predicted_edge_count";
  const auto radices = spec.flattened_radices();
  const auto& d = spec.dense_widths();
  std::uint64_t edges = 0;
  for (std::size_t i = 0; i < radices.size(); ++i) {
    std::uint64_t layer = checked_mul(radices[i], d[i], kWhat);
    layer = checked_mul(layer, d[i + 1], kWhat);
    layer = checked_mul(layer, spec.n_prime(), kWhat);
    edges = checked_add(edges, layer, kWhat);
  }
  return edges;
}

std::uint64_t predicted_node_count(const RadixNetSpec& spec) {
  constexpr const char* kWhat = "predicted_node_count";
  std::uint64_t nodes = 0;
  for (std::uint64_t w : spec.layer_widths()) {
    nodes = checked_add(nodes, w, kWhat);
  }
  return nodes;
}

std::uint64_t predicted_storage_bytes(const RadixNetSpec& spec) {
  constexpr const char* kWhat = "predicted_storage_bytes";
  const std::uint64_t edges = predicted_edge_count(spec);
  const std::uint64_t nodes = predicted_node_count(spec);
  return checked_add(checked_mul(edges, 4 + 1, kWhat),
                     checked_mul(nodes, 8, kWhat), kWhat);
}

std::uint64_t dense_edge_count(const RadixNetSpec& spec) {
  constexpr const char* kWhat = "dense_edge_count";
  const auto w = spec.layer_widths();
  std::uint64_t e = 0;
  for (std::size_t i = 0; i + 1 < w.size(); ++i) {
    e = checked_add(e, checked_mul(w[i], w[i + 1], kWhat), kWhat);
  }
  return e;
}

}  // namespace radix
