#include "radixnet/graph_challenge.hpp"

#include "radixnet/builder.hpp"
#include "support/error.hpp"

namespace radix::gc {

bool is_supported_width(index_t neurons) {
  return neurons == 1024 || neurons == 4096 || neurons == 16384 ||
         neurons == 65536;
}

std::vector<std::vector<std::uint32_t>> base_system(index_t neurons) {
  switch (neurons) {
    case 1024:
      return {{32, 32}};
    case 4096:
      return {{32, 32, 4}};
    case 16384:
      return {{32, 32, 16}};
    case 65536:
      return {{32, 32, 64}};
    default:
      throw SpecError("graph_challenge: unsupported width " +
                      std::to_string(neurons));
  }
}

float bias_for_width(index_t neurons) {
  switch (neurons) {
    case 1024:
      return -0.30f;
    case 4096:
      return -0.35f;
    case 16384:
      return -0.40f;
    case 65536:
      return -0.45f;
    default:
      throw SpecError("graph_challenge: unsupported width " +
                      std::to_string(neurons));
  }
}

RadixNetSpec spec(index_t neurons, std::size_t num_layers) {
  RADIX_REQUIRE(is_supported_width(neurons),
                "graph_challenge: unsupported width " +
                    std::to_string(neurons));
  const auto base = base_system(neurons);
  const std::size_t period = base.front().size();
  RADIX_REQUIRE(num_layers > 0 && num_layers % period == 0,
                "graph_challenge: num_layers must be a positive multiple of " +
                    std::to_string(period) + " for width " +
                    std::to_string(neurons));
  std::vector<MixedRadix> systems;
  systems.reserve(num_layers / period);
  for (std::size_t i = 0; i < num_layers / period; ++i) {
    systems.emplace_back(base.front());
  }
  return RadixNetSpec::extended(std::move(systems));
}

Fnnt topology(index_t neurons, std::size_t num_layers) {
  return build_radix_net(spec(neurons, num_layers));
}

Network network(index_t neurons, std::size_t num_layers, Rng* rng) {
  const RadixNetSpec s = spec(neurons, num_layers);
  const auto base = base_system(neurons).front();
  std::vector<float> weights(num_layers);
  for (std::size_t i = 0; i < num_layers; ++i) {
    weights[i] = weight_for_indegree(base[i % base.size()]);
  }
  // Shuffle destination neuron ids: W <- W * Pi.  Row structure (one
  // source's fan-out) is preserved; the axis alignment of the radix
  // pattern is destroyed, as in the published challenge networks.  Every
  // permutation is drawn in layer order before the parallel fill, so a
  // seed names one network bit for bit.
  std::vector<std::vector<index_t>> shuffles;
  if (rng != nullptr) {
    shuffles.reserve(num_layers);
    for (std::size_t i = 0; i < num_layers; ++i) {
      shuffles.push_back(rng->permutation(neurons));
    }
  }
  Network net;
  net.neurons = neurons;
  net.bias = bias_for_width(neurons);
  net.layers = radix_net_layers<float>(s, weights, shuffles);
  return net;
}

std::vector<float> synthetic_input(index_t batch, index_t neurons,
                                   double nonzero_fraction, Rng& rng) {
  RADIX_REQUIRE(nonzero_fraction >= 0.0 && nonzero_fraction <= 1.0,
                "graph_challenge: nonzero_fraction must be in [0, 1]");
  std::vector<float> x(static_cast<std::size_t>(batch) * neurons, 0.0f);
  for (auto& v : x) {
    if (rng.bernoulli(nonzero_fraction)) v = 1.0f;
  }
  return x;
}

}  // namespace radix::gc
