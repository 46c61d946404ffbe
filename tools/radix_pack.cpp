// radix-pack: converts legacy model inputs into RADIXART artifacts
// (store/format.hpp) so they load through the zero-copy mmap path.
//
//   radix-pack --tsv <prefix>  --out model.radixart [options]
//   radix-pack --spec <file>   --out model.radixart [options]
//
//   --tsv <prefix>   a TSV layer stack (<prefix>-meta.txt + layer files,
//                    sparse/io.hpp) -- packed as a full-CSR artifact
//   --spec <file>    a mixed-radix spec text (radixnet/serialize.hpp);
//                    full-CSR by default, --spec-only packs only the
//                    spec so the topology is regenerated on load
//   --out <path>     output artifact (written atomically)
//   --name <name>    model name stored in the artifact (default: the
//                    input file/prefix basename)
//   --weight <w>     uniform nonzero weight per edge (default 1/16, the
//                    Graph-Challenge constant)
//   --bias <b>       per-layer bias (default -0.30, the challenge's
//                    1024-width constant)
//   --clamp <c>      activation ceiling (default 32, 0 = no clamp)
//
// Prints "packed <out> (<n> layers, <bytes> bytes)" on success; exit 0.
// Malformed inputs surface the parser's path:line errors on stderr,
// exit 1; usage errors exit 2.
#include <cstdio>
#include <string>
#include <vector>

#include "infer/sparse_dnn.hpp"
#include "radixnet/builder.hpp"
#include "radixnet/serialize.hpp"
#include "sparse/io.hpp"
#include "store/artifact.hpp"
#include "support/args.hpp"

using namespace radix;

namespace {

std::string basename_no_ext(const std::string& path) {
  const auto slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  return base;
}

std::vector<Csr<float>> weighted(const std::vector<Csr<pattern_t>>& stack,
                                 float w) {
  std::vector<Csr<float>> layers;
  layers.reserve(stack.size());
  for (const auto& l : stack) {
    layers.push_back(l.map<float>([w](pattern_t) { return w; }));
  }
  return layers;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.add_flag("tsv", "", "TSV layer-stack prefix to pack");
  args.add_flag("spec", "", "mixed-radix spec file to pack");
  args.add_flag("out", "", "output artifact path (required)");
  args.add_flag("name", "", "model name (default: input basename)");
  args.add_flag("weight", "0.0625", "uniform nonzero weight");
  args.add_flag("bias", "-0.30", "per-layer bias");
  args.add_flag("clamp", "32", "activation ceiling (0 = none)");
  args.add_bool("spec-only", "pack the spec text instead of full CSR");
  try {
    args.parse(argc, argv);
    RADIX_REQUIRE(!args.get("out").empty(), "--out is required");
    RADIX_REQUIRE(args.get("tsv").empty() != args.get("spec").empty(),
                  "exactly one of --tsv / --spec is required");
    RADIX_REQUIRE(!args.get_bool("spec-only") || !args.get("spec").empty(),
                  "--spec-only needs --spec (a TSV stack has no spec)");
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), args.usage("radix-pack").c_str());
    return 2;
  }

  try {
    const std::string out = args.get("out");
    const auto weight = static_cast<float>(args.get_double("weight"));
    const auto bias = static_cast<float>(args.get_double("bias"));
    const auto clamp = static_cast<float>(args.get_double("clamp"));
    std::size_t layers = 0;
    if (!args.get("tsv").empty()) {
      const std::string prefix = args.get("tsv");
      const std::string name =
          args.get("name").empty() ? basename_no_ext(prefix)
                                   : args.get("name");
      const infer::SparseDnn dnn(weighted(read_layer_stack(prefix), weight),
                                 bias, clamp);
      layers = dnn.depth();
      store::save_artifact(out, dnn, name);
    } else {
      const std::string spec_path = args.get("spec");
      const std::string name = args.get("name").empty()
                                   ? basename_no_ext(spec_path)
                                   : args.get("name");
      const RadixNetSpec spec = load_spec(spec_path);
      layers = spec.total_radices();
      const std::vector<float> weights(layers, weight);
      // Build even for --spec-only: validates the spec end to end.
      std::vector<Csr<float>> stack = radix_net_layers<float>(spec, weights);
      if (args.get_bool("spec-only")) {
        const std::vector<float> biases(layers, bias);
        store::save_spec_artifact(out, spec, weights, biases, clamp, name);
      } else {
        const infer::SparseDnn dnn(std::move(stack), bias, clamp);
        store::save_artifact(out, dnn, name);
      }
    }
    std::printf("packed %s (%zu layers, %llu bytes)\n", out.c_str(), layers,
                static_cast<unsigned long long>(
                    store::ArtifactReader(out).file_size()));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "radix-pack: %s\n", e.what());
    return 1;
  }
}
