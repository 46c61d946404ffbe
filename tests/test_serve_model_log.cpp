// The router's model log as the one record of its model set: a router
// opened on another router's store directory must come back with the
// same ids, names, versions, tombstones and priorities -- whatever
// order concurrent registrations committed in -- serve bit-identical
// outputs, and keep all of it across restart_shard.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "radixnet/graph_challenge.hpp"
#include "serve/router.hpp"
#include "store/artifact.hpp"
#include "store/journal.hpp"
#include "support/random.hpp"

namespace radix::serve {
namespace {

std::shared_ptr<const infer::SparseDnn> make_dnn(std::uint64_t seed) {
  Rng rng(seed);
  const auto net = gc::network(1024, 2, &rng);
  return std::make_shared<const infer::SparseDnn>(net.layers, net.bias,
                                                  gc::kClamp);
}

std::vector<float> direct_forward(const infer::SparseDnn& dnn,
                                  const std::vector<float>& x) {
  infer::InferenceWorkspace ws;
  const auto y = dnn.forward(x.data(), 1, ws);
  return {y.begin(), y.end()};
}

using Row = std::tuple<ModelId, std::string, std::uint32_t, bool, Priority>;

std::vector<Row> rows_of(const ShardRouter& router, std::size_t ids) {
  std::vector<Row> rows;
  for (ModelId id = 0; id < ids; ++id) {
    const store::ModelRow r = router.model_row(id);
    rows.emplace_back(id, r.name, r.version, r.retired, r.qos.priority);
  }
  return rows;
}

class ServeModelLog : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "radixnet_model_log_test_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ + "/src");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(ServeModelLog, WarmRouterReplaysIdsVersionsAndTombstones) {
  constexpr int kLoads = 4;
  ShardRouterOptions options{.shards = 2, .engine = {.workers = 1}};
  std::map<std::string, std::shared_ptr<const infer::SparseDnn>> served;
  std::vector<Row> before;
  std::size_t ids = 0;
  {
    ShardRouterOptions hooked = options;
    hooked.registration_hook = [](std::size_t shard, ModelId id) {
      if (id == 2 && shard == 1) throw std::runtime_error("injected");
    };
    ShardRouter router(hooked, store::RegistryJournal(dir_ + "/store"));
    const ModelId a =
        router.add_model(make_dnn(1), "a", {.priority = Priority::kInteractive});
    const ModelId b = router.add_model(make_dnn(2), "b");
    EXPECT_THROW((void)router.add_model(make_dnn(3), "burned"),
                 std::runtime_error);
    served["a"] = make_dnn(4);
    router.swap_model(a, served["a"]);
    router.remove_model(b);

    // Concurrent loads from artifact files: whichever order they take
    // the admin lock in is the order their ids AND their log events
    // get, so the warm router must map every name to the same id.
    std::vector<std::thread> loaders;
    for (int i = 0; i < kLoads; ++i) {
      const std::string name = "load-" + std::to_string(i);
      const std::string file = dir_ + "/src/" + name + ".radixart";
      store::save_artifact(file, *make_dnn(10 + i), name);
      served[name] = make_dnn(10 + i);
      loaders.emplace_back([&router, file, name] {
        store::ArtifactReader reader(file);
        router.add_model(
            std::make_shared<const infer::SparseDnn>(reader.instantiate()),
            name, {}, file);
      });
    }
    for (auto& t : loaders) t.join();
    ids = 3 + kLoads;
    before = rows_of(router, ids);
    EXPECT_THROW((void)router.model_row(ids), Error);
    router.shutdown();
  }

  ShardRouter warm(options, store::RegistryJournal(dir_ + "/store"));
  EXPECT_EQ(rows_of(warm, ids), before);
  EXPECT_THROW((void)warm.model_row(ids), Error);
  EXPECT_EQ(warm.num_models(), served.size());

  Rng irng(5);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  const auto expect_outputs = [&] {
    for (const auto& [name, dnn] : served) {
      const auto id = warm.find_model(name);
      ASSERT_TRUE(id.has_value()) << name;
      EXPECT_EQ(warm.submit(InferenceRequest::borrowed(*id, x, 1)).get(),
                direct_forward(*dnn, x))
          << name;
    }
  };
  expect_outputs();

  // A shard rebuilt from the log reports the same rows, and serves them
  // alone once its sibling is down.
  warm.kill_shard(0);
  warm.restart_shard(0);
  EXPECT_EQ(rows_of(warm, ids), before);
  const Engine& rebuilt = warm.shard(0);
  for (const auto& [id, name, version, retired, priority] : before) {
    EXPECT_EQ(rebuilt.model_retired(id), retired) << id;
    if (retired) continue;
    EXPECT_EQ(rebuilt.model_name(id), name);
    EXPECT_EQ(rebuilt.model_version(id), version);
    EXPECT_EQ(rebuilt.model_priority(id), priority);
  }
  warm.kill_shard(1);
  expect_outputs();
}

}  // namespace
}  // namespace radix::serve
