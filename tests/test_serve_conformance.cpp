// Backend conformance suite: the contracts every serve::Backend must
// honor, run against all three implementations -- Engine, ShardRouter
// and (over a loopback socket) net::RemoteBackend.  New backends get
// added to the INSTANTIATE list and inherit the whole suite.
//
// The contracts under test:
//   * admission is a VALUE: rejections (fail-fast on a full queue,
//     submit after shutdown) come back as SubmitResult::rejected(),
//     never as exceptions, and the callback of a rejected request is
//     never invoked;
//   * admitted implies completed, exactly once: every admitted request
//     gets exactly one completion (future or callback), even across
//     shutdown -- shutdown() drains, it does not drop;
//   * completions are bit-exact with a direct fused forward;
//   * an unbound Client surfaces a caller bug as the library's Error.
#include "serve/backend.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/remote_backend.hpp"
#include "net/server.hpp"
#include "radixnet/graph_challenge.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "support/random.hpp"

namespace radix::serve {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<infer::SparseDnn> make_dnn(index_t neurons,
                                           std::size_t layers,
                                           std::uint64_t seed) {
  Rng rng(seed);
  const auto net = gc::network(neurons, layers, &rng);
  return std::make_shared<infer::SparseDnn>(net.layers, net.bias, gc::kClamp);
}

std::vector<float> direct_forward(const infer::SparseDnn& dnn,
                                  const std::vector<float>& input,
                                  index_t rows) {
  infer::InferenceWorkspace ws;
  const auto y = dnn.forward(input.data(), rows, ws);
  return {y.begin(), y.end()};
}

enum class BackendKind { kEngine, kRouter, kRemote };

const char* kind_name(BackendKind k) {
  switch (k) {
    case BackendKind::kEngine: return "Engine";
    case BackendKind::kRouter: return "ShardRouter";
    case BackendKind::kRemote: return "RemoteBackend";
  }
  return "?";
}

/// One serving stack under test.  The substrate (Engine or ShardRouter)
/// always exists; the remote flavor fronts it with a net::Server and
/// points `backend` at a RemoteBackend instead.
struct Stack {
  std::shared_ptr<infer::SparseDnn> dnn;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::RemoteBackend> remote;
  Backend* backend = nullptr;
  ModelId model = 0;

  Backend& get() { return *backend; }

  Stack() = default;
  Stack(Stack&& other) noexcept
      : dnn(std::move(other.dnn)),
        engine(std::move(other.engine)),
        router(std::move(other.router)),
        server(std::move(other.server)),
        remote(std::move(other.remote)),
        backend(std::exchange(other.backend, nullptr)),
        model(other.model) {}
  Stack& operator=(Stack&&) = delete;

  ~Stack() {
    if (remote) remote->shutdown();
    if (server) server->stop();
    if (router) router->shutdown();
    if (engine) engine->shutdown();
  }
};

Stack make_stack(BackendKind kind, EngineOptions engine_options = {
                                       .workers = 1, .queue_capacity = 64}) {
  Stack s;
  s.dnn = make_dnn(1024, 4, 90);
  Backend* substrate = nullptr;
  if (kind == BackendKind::kRouter) {
    s.router = std::make_unique<ShardRouter>(
        ShardRouterOptions{.shards = 2, .engine = engine_options});
    s.model = s.router->add_model(s.dnn, "conf");
    substrate = s.router.get();
  } else {
    s.engine = std::make_unique<Engine>(engine_options);
    s.model = s.engine->add_model(s.dnn, "conf");
    substrate = s.engine.get();
  }
  if (kind == BackendKind::kRemote) {
    net::ServerOptions options;
    options.hooks = net::make_admin_hooks(*s.engine);
    s.server = std::make_unique<net::Server>(*substrate, options);
    s.remote = std::make_unique<net::RemoteBackend>(s.server->port());
    s.backend = s.remote.get();
  } else {
    s.backend = substrate;
  }
  return s;
}

class BackendConformance : public ::testing::TestWithParam<BackendKind> {};

TEST_P(BackendConformance, SubmitCompletesBitExactExactlyOnce) {
  Stack s = make_stack(GetParam());
  Rng irng(91);

  constexpr index_t kRequests = 16;
  std::vector<std::vector<float>> inputs;
  std::vector<std::vector<float>> want;
  for (index_t i = 0; i < kRequests; ++i) {
    const index_t rows = 1 + i % 3;
    inputs.push_back(gc::synthetic_input(rows, 1024, 0.4, irng));
    want.push_back(direct_forward(*s.dnn, inputs[i], rows));
  }

  // Half by future, half by callback; per-request completion counters
  // pin exactly-once delivery.
  std::vector<std::atomic<int>> completions(kRequests);
  std::vector<std::future<std::vector<float>>> futures(kRequests);
  std::vector<std::promise<std::vector<float>>> promises(kRequests);
  for (index_t i = 0; i < kRequests; ++i) {
    const index_t rows = 1 + i % 3;
    SubmitOptions opts;
    if (i % 2 == 1) {
      opts.done = [&, i](std::span<const float> output,
                         const RequestTiming&, std::exception_ptr error) {
        completions[i].fetch_add(1);
        if (error) {
          promises[i].set_exception(error);
        } else {
          promises[i].set_value({output.begin(), output.end()});
        }
      };
    }
    auto result = s.get().submit(
        InferenceRequest::borrowed(s.model, inputs[i], rows), opts);
    ASSERT_TRUE(result.admitted());
    EXPECT_NE(result.request_id(), 0u);
    EXPECT_EQ(result.has_future(), i % 2 == 0);
    futures[i] = i % 2 == 0 ? result.take_future()
                            : promises[i].get_future();
  }
  for (index_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(futures[i].get(), want[i]) << "request " << i;
    if (i % 2 == 1) {
      EXPECT_EQ(completions[i].load(), 1)
          << "request " << i << " must complete exactly once";
    }
  }
  EXPECT_EQ(s.get().stats(s.model).requests, kRequests);
}

TEST_P(BackendConformance, AdmissionModesAndNameLookup) {
  Stack s = make_stack(GetParam());
  Rng irng(92);
  const auto input = gc::synthetic_input(1, 1024, 0.4, irng);

  // An idle backend admits under every mode.
  for (const auto admission : {Admission::kBlock, Admission::kFailFast,
                                std::chrono::microseconds{10ms}}) {
    SubmitOptions opts;
    opts.admission = admission;
    auto result =
        s.get().submit(InferenceRequest::borrowed(s.model, input, 1), opts);
    ASSERT_TRUE(result.admitted()) << "budget " << admission.count();
    (void)result.get();
  }

  EXPECT_TRUE(s.get().accepting());
  EXPECT_EQ(s.get().num_models(), 1u);
  EXPECT_EQ(s.get().find_model("conf"), std::optional<ModelId>(s.model));
  EXPECT_EQ(s.get().find_model("missing"), std::nullopt);
  EXPECT_EQ(s.get().pending(s.model), 0u);
}

TEST_P(BackendConformance, ShutdownDrainsAdmittedThenRejectsAsValue) {
  Stack s = make_stack(GetParam());
  Rng irng(93);

  // Queue a burst, then shut down immediately: every admitted request
  // must still complete successfully (drain, not drop) -- exactly once.
  constexpr index_t kRequests = 12;
  std::atomic<int> succeeded{0};
  std::atomic<int> failed{0};
  std::vector<std::vector<float>> inputs;
  std::vector<std::future<void>> done;
  std::vector<std::promise<void>> signals(kRequests);
  for (index_t i = 0; i < kRequests; ++i) {
    inputs.push_back(gc::synthetic_input(2, 1024, 0.4, irng));
    SubmitOptions opts;
    opts.done = [&, i](std::span<const float>, const RequestTiming&,
                       std::exception_ptr error) {
      (error ? failed : succeeded).fetch_add(1);
      signals[i].set_value();
    };
    auto result = s.get().submit(
        InferenceRequest::borrowed(s.model, inputs[i], 2), opts);
    ASSERT_TRUE(result.admitted());
    done.push_back(signals[i].get_future());
  }

  s.get().shutdown();
  for (auto& f : done) {
    ASSERT_EQ(f.wait_for(10s), std::future_status::ready)
        << "shutdown() must not strand admitted requests";
  }
  EXPECT_EQ(succeeded.load(), kRequests);
  EXPECT_EQ(failed.load(), 0);

  // After shutdown: rejection is a value, the callback never runs.
  EXPECT_FALSE(s.get().accepting());
  std::atomic<int> late{0};
  SubmitOptions opts;
  opts.done = [&](std::span<const float>, const RequestTiming&,
                  std::exception_ptr) { late.fetch_add(1); };
  const auto rejected = s.get().submit(
      InferenceRequest::borrowed(s.model, inputs[0], 2), opts);
  EXPECT_FALSE(rejected.admitted());
  EXPECT_EQ(rejected.request_id(), 0u);
  EXPECT_FALSE(rejected.has_future());
  EXPECT_EQ(late.load(), 0) << "rejected requests must never complete";
  s.get().shutdown();  // idempotent
}

TEST_P(BackendConformance, FailFastOnFullQueueRejectsAsValue) {
  // Deep model, one worker, tiny queue: saturate, then fail-fast.
  // The borrowed inputs are declared before the Stack so they outlive
  // it: the Stack drains the requests that borrow them in its
  // destructor.
  Rng irng(94);
  const auto big = gc::synthetic_input(64, 1024, 0.4, irng);
  const auto one = gc::synthetic_input(1, 1024, 0.4, irng);
  Stack s = make_stack(GetParam(), {.workers = 1, .queue_capacity = 2});
  std::vector<std::future<std::vector<float>>> admitted;
  for (int i = 0; i < 6; ++i) {
    auto result =
        s.get().submit(InferenceRequest::borrowed(s.model, big, 64),
                       {.admission = Admission::kFailFast});
    if (result.admitted()) admitted.push_back(result.take_future());
  }
  bool rejected = false;
  for (int i = 0; i < 200 && !rejected; ++i) {
    auto result =
        s.get().submit(InferenceRequest::borrowed(s.model, one, 1),
                       {.admission = Admission::kFailFast});
    if (result.admitted()) {
      (void)result.take_future();
    } else {
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected) << "kFailFast must reject against a full queue";
  for (auto& f : admitted) (void)f.get();
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendConformance,
                         ::testing::Values(BackendKind::kEngine,
                                           BackendKind::kRouter,
                                           BackendKind::kRemote),
                         [](const auto& param_info) {
                           return std::string(kind_name(param_info.param));
                         });

TEST(ClientConformance, UnboundClientSurfacesCallerBug) {
  Client unbound;
  EXPECT_FALSE(unbound.bound());
  std::vector<float> input(4, 0.0f);
  EXPECT_THROW((void)unbound.submit(input, 1), Error);
  EXPECT_THROW((void)unbound.submit(std::vector<float>(4, 0.0f), 1), Error);
  EXPECT_THROW((void)unbound.stats(), Error);
  EXPECT_THROW((void)unbound.pending(), Error);
  EXPECT_THROW((void)unbound.backend(), Error);
}

TEST(ClientConformance, BoundClientRoutesToItsModel) {
  Stack s = make_stack(BackendKind::kRemote);
  Client client(s.get(), s.model);
  EXPECT_TRUE(client.bound());
  Rng irng(95);
  const auto input = gc::synthetic_input(1, 1024, 0.4, irng);
  EXPECT_EQ(client.submit(input, 1).get(), direct_forward(*s.dnn, input, 1));
  EXPECT_EQ(client.stats().requests, 1u);
  EXPECT_EQ(client.pending(), 0u);
}

}  // namespace
}  // namespace radix::serve
