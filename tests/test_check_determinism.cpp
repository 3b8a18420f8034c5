// Determinism audit: every algorithm's trajectory must be bit-identical
// across kernel-thread counts (src/check/determinism.hpp). The model here
// is sized so its GEMMs cross the kernel pool's split threshold — with a
// tiny model the pool never forks and the audit would only test the
// single-threaded path against itself.
#include <gtest/gtest.h>

#include <memory>

#include "algorithms/cfl.hpp"
#include "algorithms/fedavg.hpp"
#include "algorithms/fedper.hpp"
#include "algorithms/ifca.hpp"
#include "algorithms/local_only.hpp"
#include "algorithms/pacfl.hpp"
#include "check/determinism.hpp"
#include "core/fedclust.hpp"
#include "test_helpers.hpp"

namespace fedclust::check {
namespace {

/// Two-group federation over 16x16 images with a wide-hidden MLP. The
/// Linear(256 -> 512) weight-gradient GEMM runs at ~4.2 MFLOP with 256
/// output rows, above the pool's ~2 MFLOP fork threshold — so at
/// kernel_threads = 4 the backward genuinely executes on multiple
/// workers, each writing a disjoint row block.
fl::Federation make_federation(std::size_t kernel_threads) {
  constexpr std::uint64_t kSeed = 47;
  data::SyntheticSpec spec = testing::tiny_image_spec();
  spec.image = {1, 16, 16, 4};
  const data::SyntheticGenerator gen(spec, kSeed);
  Rng data_rng = Rng(kSeed).split(1);
  const data::Dataset pool = gen.generate(320, data_rng);
  Rng part_rng = Rng(kSeed).split(3);
  const partition::Partition part = partition::grouped_label_partition(
      pool, /*num_clients=*/4, {{0, 1}, {2, 3}}, part_rng);

  nn::Model model = nn::mlp(spec.image, /*hidden=*/512);
  Rng init = Rng(kSeed).split(4);
  model.init_params(init);

  fl::FederationConfig cfg;
  cfg.seed = kSeed;
  cfg.threads = 2;
  cfg.kernel_threads = kernel_threads;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 16;
  cfg.local.sgd.lr = 0.05;
  return fl::Federation(std::move(model),
                        testing::make_clients(pool, part, kSeed), cfg);
}

/// kernel_threads = 0 disables the pool entirely, 1 forks through a
/// single worker, 4 splits row blocks for real.
const std::vector<std::size_t> kThreadCounts = {0, 1, 4};

template <typename MakeAlgorithm>
void expect_deterministic(MakeAlgorithm make_algorithm,
                          std::size_t rounds = 3) {
  const DeterminismReport report = determinism_audit(
      make_algorithm, make_federation, rounds, kThreadCounts);
  EXPECT_TRUE(report.identical);
  for (const std::string& m : report.mismatches) ADD_FAILURE() << m;
  EXPECT_GT(report.rounds_compared, 0u);
  EXPECT_EQ(report.kernel_thread_counts, kThreadCounts);
}

TEST(Determinism, KernelPoolSplitsAtFour) {
  const fl::Federation fed = make_federation(4);
  ASSERT_NE(fed.kernel_pool(), nullptr);
  EXPECT_EQ(fed.kernel_pool()->size(), 4u);
  EXPECT_EQ(make_federation(0).kernel_pool(), nullptr);
}

TEST(Determinism, FedAvg) {
  expect_deterministic([] { return std::make_unique<algorithms::FedAvg>(); });
}

TEST(Determinism, FedProx) {
  expect_deterministic(
      [] { return std::make_unique<algorithms::FedProx>(0.1); });
}

TEST(Determinism, FedAvgM) {
  expect_deterministic([] { return std::make_unique<algorithms::FedAvgM>(); });
}

TEST(Determinism, FedPer) {
  expect_deterministic([] { return std::make_unique<algorithms::FedPer>(); });
}

TEST(Determinism, LocalOnly) {
  expect_deterministic(
      [] { return std::make_unique<algorithms::LocalOnly>(); });
}

TEST(Determinism, Cfl) {
  expect_deterministic(
      [] { return std::make_unique<algorithms::Cfl>(algorithms::CflConfig{}); });
}

TEST(Determinism, Ifca) {
  expect_deterministic([] {
    return std::make_unique<algorithms::Ifca>(
        algorithms::IfcaConfig{.num_clusters = 2});
  });
}

TEST(Determinism, Pacfl) {
  expect_deterministic([] {
    return std::make_unique<algorithms::Pacfl>(algorithms::PacflConfig{});
  });
}

TEST(Determinism, FedClust) {
  expect_deterministic([] {
    return std::make_unique<core::FedClust>(
        core::FedClustConfig{.warmup_epochs = 2});
  });
}

}  // namespace
}  // namespace fedclust::check
