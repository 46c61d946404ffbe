// radix-served: the networked serving daemon.
//
// Builds a Graph-Challenge model fleet, stands a ShardRouter of
// --shards engines (1 is a router of one shard) behind the epoll
// front-end (net/server.hpp), prints "LISTENING <port>" once the socket is
// bound (scripts parse that line -- with --port 0 it is the only way
// to learn the ephemeral port), and serves until radix-ctl sends the
// shutdown verb (or SIGTERM/SIGINT arrives).
//
//   radix-served --port 0 --shards 2 --workers 1 --models 2 &
//   radix-ctl --port <port> models
//   radix-ctl --port <port> shutdown
//
// Models are registered as "model-0" .. "model-<n-1>"; model-0 is
// interactive class, the rest are batch class, so the per-class stats
// verbs have something to show.
//
// With --store-dir <dir> the router's model log (store/journal.hpp)
// lives in <dir>: the first boot saves the default models there, later
// boots replay the log and mmap the artifacts back, so a kill -9 +
// restart serves the exact pre-crash model set -- runtime loads, ids,
// versions and tombstones included -- bit-identically.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <thread>

#include "infer/sparse_dnn.hpp"
#include "net/server.hpp"
#include "radixnet/graph_challenge.hpp"
#include "serve/router.hpp"
#include "store/journal.hpp"
#include "support/args.hpp"
#include "support/random.hpp"

using namespace radix;

namespace {

// Signal handlers may only touch lock-free state; the main loop polls
// this next to Server::stopped() and runs the actual teardown.
volatile std::sig_atomic_t g_signaled = 0;

void handle_signal(int) { g_signaled = 1; }

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.add_flag("port", "0", "TCP port on 127.0.0.1 (0 = ephemeral)");
  args.add_flag("shards", "2", "engine shards behind the router");
  args.add_flag("workers", "1", "worker threads per shard");
  args.add_flag("models", "2", "models to register");
  args.add_flag("neurons", "1024", "challenge network width");
  args.add_flag("layers", "12", "challenge network depth");
  args.add_flag("queue-capacity", "256", "per-model queue capacity");
  args.add_flag("submit-workers", "2", "server threads executing verbs");
  args.add_flag("store-dir", "",
                "artifact store: replay its journal for a warm restart, "
                "or seed it with the default fleet on first boot");
  try {
    args.parse(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 args.usage("radix-served").c_str());
    return 2;
  }

  try {
    serve::ShardRouterOptions router_options;
    router_options.shards = static_cast<std::size_t>(args.get_int("shards"));
    router_options.engine.workers =
        static_cast<unsigned>(args.get_int("workers"));
    router_options.engine.queue_capacity =
        static_cast<std::size_t>(args.get_int("queue-capacity"));

    // Boot: open the log, replay it, seed the defaults if it is empty.
    const std::string store_dir = args.get("store-dir");
    serve::ShardRouter router(router_options,
                              store_dir.empty()
                                  ? store::RegistryJournal()
                                  : store::RegistryJournal(store_dir));
    if (router.num_models() > 0) {
      std::printf("radix-served: warm restart from %s (%zu models)\n",
                  store_dir.c_str(), router.num_models());
    } else {
      // model-0 is interactive class, the rest batch, so the per-class
      // stats verbs have something to show.
      const auto models = static_cast<std::size_t>(args.get_int("models"));
      Rng rng(42);
      const auto neurons = static_cast<index_t>(args.get_int("neurons"));
      const auto layers = static_cast<std::size_t>(args.get_int("layers"));
      const gc::Network network = gc::network(neurons, layers, &rng);
      const auto dnn = std::make_shared<const infer::SparseDnn>(
          network.layers, network.bias, gc::kClamp);
      for (std::size_t i = 0; i < models; ++i) {
        serve::QosPolicy qos;
        qos.priority = i == 0 ? serve::Priority::kInteractive
                              : serve::Priority::kBatch;
        router.add_model(dnn, "model-" + std::to_string(i), qos);
      }
      if (!store_dir.empty()) {
        std::printf("radix-served: seeded store %s (%zu artifacts)\n",
                    store_dir.c_str(), models);
      }
    }

    net::ServerOptions server_options;
    server_options.port =
        static_cast<std::uint16_t>(args.get_int("port"));
    server_options.submit_workers =
        static_cast<std::size_t>(args.get_int("submit-workers"));
    server_options.hooks = net::make_admin_hooks(router);
    net::Server server(router, server_options);

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    std::printf("LISTENING %u\n", static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    while (!server.stopped() && g_signaled == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.stop();
    router.shutdown();
    std::printf("radix-served: drained (%llu connections, "
                "%llu orphaned responses)\n",
                static_cast<unsigned long long>(server.connections_accepted()),
                static_cast<unsigned long long>(server.orphaned_responses()));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "radix-served: %s\n", e.what());
    return 1;
  }
}
