// Shared pieces of the perfbench program: workload specs, the metric
// report, statistics helpers and the phase entry points each workload
// composes (setup, FedClust training, newcomer admission, open-loop
// serving, layer probes).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fedclust_async.hpp"
#include "data/synthetic.hpp"
#include "fl/federation.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace fedclust;

// -- statistics ---------------------------------------------------------------

/// Linear-interpolated quantile q in [0, 1] of `v` (copied, sorted).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v);

double seconds_since(std::chrono::steady_clock::time_point t0);

/// Throws fedclust::Error tagged as a benchmark correctness failure.
[[noreturn]] void fail_check(const std::string& what);

// -- report -------------------------------------------------------------------

/// Named metrics with units, in insertion-independent (sorted) order.
struct Report {
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Value{value, unit};
  }
};

// -- workload specs -----------------------------------------------------------

/// The federated part of a workload: population, model and protocol. The
/// population (generator prototypes, pool, partition, newcomers) and the
/// initial model are fixed per workload, as a real dataset and starting
/// checkpoint would be; the run's --seed drives client sampling, local
/// shuffles, dropout and network draws, and the request mix.
struct FlSpec {
  data::SyntheticKind dataset = data::SyntheticKind::kCifar10;
  /// "lenet5" or "mlp" (hidden 32).
  std::string model = "lenet5";
  std::size_t clients = 20;
  /// Eager population: pool samples dealt by Dir(0.1). Zero selects the
  /// virtual fleet (samples_per_client, shards materialised in set-up).
  std::size_t pool = 1000;
  std::size_t samples_per_client = 24;
  std::size_t rounds = 12;
  fl::FederationConfig engine;
  core::FedClustConfig algo;
};

struct WorkloadSpec {
  FlSpec fl;
  /// Open-loop serving rate (requests/s), about a third of capacity on
  /// the reference machine; fixed so every commit is measured at one load.
  double nominal_rps = 2000.0;
};

/// The workloads of record; throws on an unknown name.
WorkloadSpec workload_spec(const std::string& name);

// -- phases ---------------------------------------------------------------

/// Everything set-up builds from the seed: the federation and the
/// held-out newcomers' local train sets.
struct Inputs {
  std::unique_ptr<fl::Federation> federation;
  std::vector<data::Dataset> newcomers;
};

/// Builds the inputs. Spans: data.generate, partition.split.
Inputs build_inputs(const FlSpec& spec, std::uint64_t seed, Tracer& tracer);

/// Result of one FedClust training run.
struct TrainRun {
  double run_s = 0.0;        ///< begin() to final accuracy
  double formation_s = 0.0;  ///< begin()
  std::vector<double> round_s;
  double final_acc = 0.0;  ///< percent
  double upload_mb = 0.0;
  std::uint64_t fingerprint = 0;
  std::size_t clusters = 0;
  std::uint64_t updates_solicited = 0;
  std::uint64_t updates_arrived = 0;
  std::uint64_t samples_trained = 0;
  /// Traced runs only: the last round's arrived updates (layer probes).
  std::vector<fl::ClientUpdate> last_updates;
  fl::RunResult result;  ///< cluster labels / weights (finish())
  std::unique_ptr<core::FedClustAsync> adapter;
};

/// One training run. Untraced: the adapter's own rounds (as
/// fl::run_synchronized drives them). Traced: the same rounds re-driven
/// through the public Federation calls, each under its span.
TrainRun train(fl::Federation& federation, const FlSpec& spec,
               Tracer& tracer);

/// Re-runs proximity + agglomerative clustering on the adapter's
/// formation uploads and checks the cut reproduces its labels. Spans:
/// cluster.proximity, cluster.agglomerative.
void check_formation(const core::FedClustAsync& adapter, const FlSpec& spec,
                     Tracer& tracer);

/// One admission pass over the held-out newcomers.
struct NewcomerPass {
  std::vector<double> latency_ms;    ///< per newcomer
  std::vector<std::size_t> cluster;  ///< assigned cluster per newcomer
};

/// Admits every newcomer through FedClust::assign_newcomer, checking
/// each lands on an existing cluster. Span: core.newcomer.
NewcomerPass admit_newcomers(const fl::Federation& federation,
                             const FlSpec& spec,
                             const core::ClusteringOutcome& outcome,
                             const std::vector<data::Dataset>& newcomers,
                             std::uint64_t seed, Tracer& tracer);

/// Engine worker threads; with the one generator thread, serving uses
/// three CPUs.
inline constexpr std::size_t kServeWorkers = 2;

/// Open-loop serving of the trained cluster heads: the nominal rate,
/// then (untraced runs only) the rate ladder. Fills serve_* end-to-end
/// metrics, or serve.* layer metrics when traced.
void serve(const fl::Federation& federation, const TrainRun& run,
           double nominal_rps, double seconds, std::uint64_t seed,
           Tracer& tracer, Report& report);

/// Layer probes on fixed shapes: nn (LeNet-5 per-layer fwd/bwd, SGD step,
/// inference batches), tensor kernels, codec, network simulator and
/// update screening, each under its own span. Fills the layer metrics.
void probe_layers(const fl::Federation& federation, const TrainRun& run,
                  std::uint64_t seed, Tracer& tracer, Report& report);

}  // namespace perfbench
