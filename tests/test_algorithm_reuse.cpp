// AlgorithmReuse — an algorithm object holds its server state between
// the driver's hook calls, so begin() must reset all of it. Every
// algorithm runs on a federation, then on a different one, then on a
// fresh copy of the first: the first and third trajectories must be
// bit-identical (weights fingerprints, metric bit patterns, bytes,
// simulated time, drift telemetry, final labels).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "algorithms/cfl.hpp"
#include "algorithms/fedavg.hpp"
#include "algorithms/fedper.hpp"
#include "algorithms/ifca.hpp"
#include "algorithms/local_only.hpp"
#include "algorithms/pacfl.hpp"
#include "core/fedclust.hpp"
#include "test_helpers.hpp"

namespace fedclust {
namespace {

using testing::make_grouped_federation;

struct ReuseCase {
  std::string name;
  std::function<std::unique_ptr<fl::Algorithm>()> make;
  bool drift = false;
  std::size_t rounds = 4;
};

fl::FederationConfig cellular_dropout() {
  fl::FederationConfig cfg;
  cfg.network.enabled = true;
  cfg.network.profile = net::Profile::kCellular;
  cfg.dropout = 0.1;
  return cfg;
}

/// Label rotation of half of group 0 at round 4 over 8 clients: the
/// dynamic FedClust detector alarms and re-clusters mid-run.
fl::FederationConfig rotation_drift() {
  auto [probe, groups] = make_grouped_federation(8, 640, 42);
  robust::DriftEvent e;
  e.round = 4;
  e.kind = robust::DriftKind::kLabelRotation;
  e.rotate_by = 2;
  for (std::size_t i = 0; i < groups.size() && e.slots.size() < 2; ++i) {
    if (groups[i] == 0) e.slots.push_back(i);
  }
  fl::FederationConfig cfg;
  cfg.local.epochs = 2;
  cfg.local.sgd.lr = 0.05;
  cfg.drift.enabled = true;
  cfg.drift.events.push_back(e);
  return cfg;
}

core::FedClustConfig dynamic_fedclust() {
  core::FedClustConfig cfg;
  cfg.dynamic.enabled = true;
  cfg.dynamic.detector.window = 4;
  cfg.dynamic.detector.drop_threshold = 0.08;
  cfg.dynamic.detector.hysteresis = 2;
  cfg.dynamic.detector.cooldown = 2;
  cfg.dynamic.max_recoveries = 2;
  return cfg;
}

fl::RunResult run_on(fl::Algorithm& algo, const ReuseCase& c,
                     std::uint64_t seed) {
  if (c.drift) {
    auto [fed, g] = make_grouped_federation(8, 640, seed, rotation_drift());
    return algo.run(fed, c.rounds);
  }
  auto [fed, g] = make_grouped_federation(6, 480, seed, cellular_dropout());
  return algo.run(fed, c.rounds);
}

void PrintTo(const ReuseCase& c, std::ostream* os) { *os << c.name; }

class AlgorithmReuse : public ::testing::TestWithParam<ReuseCase> {};

TEST_P(AlgorithmReuse, SameObjectRerunsBitIdentically) {
  const ReuseCase& c = GetParam();
  const std::unique_ptr<fl::Algorithm> algo = c.make();
  const fl::RunResult first = run_on(*algo, c, 42);
  const fl::RunResult other = run_on(*algo, c, 43);  // different state
  const fl::RunResult again = run_on(*algo, c, 42);

  ASSERT_EQ(first.rounds.size(), again.rounds.size());
  ASSERT_FALSE(first.rounds.empty());
  EXPECT_NE(first.rounds.back().weights_fp, other.rounds.back().weights_fp);
  std::size_t reclusters = 0;
  for (std::size_t i = 0; i < first.rounds.size(); ++i) {
    const fl::RoundMetrics& a = first.rounds[i];
    const fl::RoundMetrics& b = again.rounds[i];
    EXPECT_EQ(a.round, b.round) << i;
    EXPECT_EQ(a.weights_fp, b.weights_fp) << i;
    EXPECT_EQ(a.acc_mean, b.acc_mean) << i;
    EXPECT_EQ(a.acc_std, b.acc_std) << i;
    EXPECT_EQ(a.train_loss, b.train_loss) << i;
    EXPECT_EQ(a.cum_upload, b.cum_upload) << i;
    EXPECT_EQ(a.cum_download, b.cum_download) << i;
    EXPECT_EQ(a.num_clusters, b.num_clusters) << i;
    EXPECT_EQ(a.sim_seconds, b.sim_seconds) << i;
    EXPECT_EQ(a.drift_score, b.drift_score) << i;
    EXPECT_EQ(a.drift_alarms, b.drift_alarms) << i;
    EXPECT_EQ(a.reclusters, b.reclusters) << i;
    reclusters += a.reclusters;
  }
  EXPECT_EQ(first.final_accuracy.mean, again.final_accuracy.mean);
  EXPECT_EQ(first.cluster_labels, again.cluster_labels);
  EXPECT_EQ(first.cluster_weights, again.cluster_weights);
  // The dynamic case must exercise the detector and recovery state.
  if (c.drift) EXPECT_GE(reclusters, 1u);
}

std::vector<ReuseCase> reuse_cases() {
  using namespace algorithms;
  return {
      {"FedAvg", [] { return std::make_unique<FedAvg>(); }},
      {"FedProx", [] { return std::make_unique<FedProx>(0.05); }},
      {"FedAvgM", [] { return std::make_unique<FedAvgM>(); }},
      {"CFL",
       [] { return std::make_unique<Cfl>(CflConfig{.warmup_rounds = 1}); }},
      {"IFCA",
       [] { return std::make_unique<Ifca>(IfcaConfig{.num_clusters = 2}); }},
      {"PACFL", [] { return std::make_unique<Pacfl>(PacflConfig{}); }},
      {"FedPer", [] { return std::make_unique<FedPer>(); }},
      {"LocalOnly", [] { return std::make_unique<LocalOnly>(); }},
      {"FedClust",
       [] {
         return std::make_unique<core::FedClust>(core::FedClustConfig{});
       }},
      {"FedClustDynamic",
       [] { return std::make_unique<core::FedClust>(dynamic_fedclust()); },
       /*drift=*/true, /*rounds=*/12},
  };
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmReuse, ::testing::ValuesIn(reuse_cases()),
    [](const ::testing::TestParamInfo<ReuseCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace fedclust
