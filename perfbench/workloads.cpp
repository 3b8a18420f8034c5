// The three workloads of record and the shared statistics helpers.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "utils/error.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  FEDCLUST_CHECK(!v.empty(), "quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  FEDCLUST_CHECK(!v.empty(), "mean of an empty sample");
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void fail_check(const std::string& what) {
  throw Error("correctness check failed: " + what);
}

namespace {

/// The Table-I engine: 5 local epochs, batch 32, lr 0.03, half the
/// clients per round, final evaluation only, 4 training threads.
fl::FederationConfig table1_engine(std::size_t rounds) {
  fl::FederationConfig e;
  e.local.epochs = 5;
  e.local.batch_size = 32;
  e.local.sgd.lr = 0.03;
  e.participation = 0.5;
  e.eval_every = rounds;
  e.threads = 4;
  return e;
}

/// The FedClust config of the Table-I algorithm zoo.
core::FedClustConfig table1_algo() {
  return core::FedClustConfig{.warmup_epochs = 2, .rel_factor = 0.6};
}

}  // namespace

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec w;
  if (name == "table1_cifar") {
    // The paper's end-to-end run: local training in nn/tensor dominates.
    w.fl.rounds = 12;
    w.fl.engine = table1_engine(w.fl.rounds);
    w.fl.algo = table1_algo();
    w.nominal_rps = 2000.0;
  } else if (name == "cross_device_1k") {
    // One-shot formation and newcomer admission at cross-device scale,
    // with network, int8 uploads and screening on; the MLP keeps nn small.
    w.fl.dataset = data::SyntheticKind::kFmnist;
    w.fl.model = "mlp";
    w.fl.clients = 1000;
    w.fl.pool = 0;  // virtual fleet, shards materialised in set-up
    w.fl.samples_per_client = 24;
    w.fl.rounds = 11;  // formation + 10 per-cluster rounds
    fl::FederationConfig& e = w.fl.engine;
    e.local.epochs = 1;
    e.local.batch_size = 16;
    e.local.sgd.lr = 0.05;
    e.participation = 0.1;
    e.eval_every = w.fl.rounds;
    e.threads = 4;
    e.network.enabled = true;
    e.network.profile = net::Profile::kCellular;
    e.compression.enabled = true;
    e.compression.upload = compress::CodecKind::kInt8;
    e.robust.validate.enabled = true;
    w.fl.algo = table1_algo();
    w.fl.algo.warmup_epochs = 1;
    w.nominal_rps = 5000.0;
  } else {
    throw Error("unknown workload '" + name +
                "' (want table1_cifar or cross_device_1k)");
  }
  return w;
}

}  // namespace perfbench
