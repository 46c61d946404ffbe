#include "radixnet/spec.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"

namespace radix {

RadixNetSpec::RadixNetSpec(std::vector<MixedRadix> systems,
                           std::vector<std::uint32_t> d)
    : systems_(std::move(systems)), d_(std::move(d)) {
  RADIX_REQUIRE(!systems_.empty(), "RadixNetSpec: need at least one system");

  // Constraint 1: common product N' across systems 1..M-1.
  n_prime_ = systems_.front().product();
  for (std::size_t i = 0; i + 1 < systems_.size(); ++i) {
    RADIX_REQUIRE(systems_[i].product() == n_prime_,
                  "RadixNetSpec: systems 1..M-1 must share a product; system " +
                      std::to_string(i + 1) + " " + systems_[i].to_string() +
                      " has product " + std::to_string(systems_[i].product()) +
                      " != " + std::to_string(n_prime_));
  }
  // Constraint 2: the last system's product divides N'.
  const std::uint64_t last = systems_.back().product();
  if (systems_.size() == 1) {
    n_prime_ = last;  // sole system defines N' itself
  } else {
    RADIX_REQUIRE(n_prime_ % last == 0,
                  "RadixNetSpec: last system's product " +
                      std::to_string(last) + " must divide N' = " +
                      std::to_string(n_prime_));
  }

  RADIX_REQUIRE(d_.size() == total_radices() + 1,
                "RadixNetSpec: D must have Mbar+1 = " +
                    std::to_string(total_radices() + 1) + " entries, got " +
                    std::to_string(d_.size()));
  for (std::uint32_t di : d_) {
    RADIX_REQUIRE(di >= 1, "RadixNetSpec: every D_i must be >= 1");
  }
}

RadixNetSpec RadixNetSpec::extended(std::vector<MixedRadix> systems) {
  std::size_t mbar = 0;
  for (const auto& s : systems) mbar += s.digits();
  return RadixNetSpec(std::move(systems),
                      std::vector<std::uint32_t>(mbar + 1, 1));
}

std::size_t RadixNetSpec::total_radices() const noexcept {
  std::size_t mbar = 0;
  for (const auto& s : systems_) mbar += s.digits();
  return mbar;
}

std::vector<std::uint32_t> RadixNetSpec::flattened_radices() const {
  std::vector<std::uint32_t> out;
  out.reserve(total_radices());
  for (const auto& s : systems_) {
    out.insert(out.end(), s.radices().begin(), s.radices().end());
  }
  return out;
}

std::vector<std::uint64_t> RadixNetSpec::layer_widths() const {
  std::vector<std::uint64_t> out;
  out.reserve(d_.size());
  for (std::uint32_t di : d_) {
    std::uint64_t w = 0;
    if (__builtin_mul_overflow(std::uint64_t{di}, n_prime_, &w)) {
      throw SpecError("RadixNetSpec: layer width D_i * N' = " +
                      std::to_string(di) + " * " + std::to_string(n_prime_) +
                      " exceeds 64 bits");
    }
    out.push_back(w);
  }
  return out;
}

double RadixNetSpec::dominance_ratio() const noexcept {
  std::uint32_t dmax = 0;
  for (std::uint32_t di : d_) dmax = std::max(dmax, di);
  return static_cast<double>(dmax) / static_cast<double>(n_prime_);
}

double RadixNetSpec::mean_radix() const noexcept {
  const auto flat = flattened_radices();
  double sum = 0.0;
  for (std::uint32_t r : flat) sum += r;
  return sum / static_cast<double>(flat.size());
}

double RadixNetSpec::radix_variance() const noexcept {
  const auto flat = flattened_radices();
  const double mu = mean_radix();
  double acc = 0.0;
  for (std::uint32_t r : flat) {
    const double dd = r - mu;
    acc += dd * dd;
  }
  return acc / static_cast<double>(flat.size());
}

std::string RadixNetSpec::to_string() const {
  std::ostringstream os;
  os << "N*=[";
  for (std::size_t i = 0; i < systems_.size(); ++i) {
    if (i) os << ", ";
    os << systems_[i].to_string();
  }
  os << "], D=[";
  for (std::size_t i = 0; i < d_.size(); ++i) {
    if (i) os << ", ";
    os << d_[i];
  }
  os << "]";
  return os.str();
}

}  // namespace radix
