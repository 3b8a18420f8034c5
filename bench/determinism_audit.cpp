// Determinism audit harness: runs the full algorithm zoo on a small
// Dir(0.1) federation at several kernel-thread counts and asserts the
// trajectories are bit-identical (src/check/determinism.hpp). Exits
// nonzero on any divergence, so CI can gate on it.
//
//   ./determinism_audit [--rounds 3] [--clients 8] [--pool 480]
//                       [--max-threads N] [--faults]
//
// --faults layers the robustness machinery on top: client crashes,
// stale replays, NaN-poisoned and sign-flipped uploads, with arrival
// screening + quarantine enabled. Fault draws and strike accounting are
// keyed functionally by (seed, round, client, attempt), so the faulted
// trajectories must stay bit-identical across kernel-thread counts too.
#include <cstdio>
#include <thread>

#include "algorithms/fedavg.hpp"
#include "algorithms/fedper.hpp"
#include "algorithms/local_only.hpp"
#include "bench_common.hpp"
#include "check/determinism.hpp"
#include "utils/cli.hpp"
#include "utils/table.hpp"

namespace {

/// The Table-I zoo plus the baselines it leaves out. Kept local:
/// table1_accuracy pairs bench::make_algorithms with the paper's rows by
/// position.
std::vector<std::unique_ptr<fedclust::fl::Algorithm>> audit_zoo() {
  using namespace fedclust;
  std::vector<std::unique_ptr<fl::Algorithm>> algos =
      bench::make_algorithms(2);
  algos.push_back(std::make_unique<algorithms::FedAvgM>());
  algos.push_back(std::make_unique<algorithms::FedPer>());
  algos.push_back(std::make_unique<algorithms::LocalOnly>());
  return algos;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedclust;

  CliParser cli("determinism_audit",
                "Asserts bit-identical trajectories across kernel-thread "
                "counts for every algorithm");
  cli.add_int("rounds", 3, "communication rounds per run");
  cli.add_int("clients", 8, "number of clients");
  cli.add_int("pool", 480, "total training samples");
  cli.add_int("max-threads", 0,
              "largest kernel-thread count to test (0 = hardware)");
  cli.add_flag("faults",
               "inject crashes/stale replays/corrupted uploads with "
               "validation + quarantine enabled");
  cli.parse(argc, argv);

  const auto rounds = static_cast<std::size_t>(cli.get_int("rounds"));
  std::size_t max_threads =
      static_cast<std::size_t>(cli.get_int("max-threads"));
  if (max_threads == 0) {
    max_threads = std::max(2u, std::thread::hardware_concurrency());
  }
  // 0 = pool disabled entirely, 1 = single pooled worker, max = real
  // row-block splitting.
  const std::vector<std::size_t> counts = {0, 1, max_threads};

  bench::Scenario base;
  base.num_clients = static_cast<std::size_t>(cli.get_int("clients"));
  base.pool_samples = static_cast<std::size_t>(cli.get_int("pool"));
  base.engine.local.epochs = 2;
  base.engine.threads = 2;
  const bool faults = cli.get_flag("faults");
  if (faults) {
    base.engine.faults.enabled = true;
    base.engine.faults.crash_prob = 0.1;
    base.engine.faults.stale_prob = 0.1;
    base.engine.faults.nan_prob = 0.1;
    base.engine.faults.sign_flip_prob = 0.1;
    base.engine.robust.validate.enabled = true;
  }

  const auto make_fed = [&](std::size_t kernel_threads) {
    bench::Scenario s = base;
    s.engine.kernel_threads = kernel_threads;
    return bench::make_federation(s);
  };

  TextTable table({"Algorithm", "Rounds", "Identical", "First mismatch"});
  bool all_identical = true;
  const std::size_t zoo_size = audit_zoo().size();
  for (std::size_t i = 0; i < zoo_size; ++i) {
    const auto make_alg = [i] { return std::move(audit_zoo()[i]); };
    const check::DeterminismReport report =
        check::determinism_audit(make_alg, make_fed, rounds, counts);
    all_identical = all_identical && report.identical;
    table.new_row()
        .add(make_alg()->name())
        .add(static_cast<long long>(report.rounds_compared))
        .add(report.identical ? "yes" : "NO")
        .add(report.mismatches.empty() ? "-" : report.mismatches.front());
  }

  std::printf("kernel_threads tested: 0, 1, %zu (faults %s)\n\n%s\n",
              max_threads, faults ? "ON" : "off", table.to_string().c_str());
  if (!all_identical) {
    std::fprintf(stderr, "determinism audit FAILED\n");
    return 1;
  }
  std::printf("determinism audit passed\n");
  return 0;
}
