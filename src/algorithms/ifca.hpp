// IFCA — the Iterative Federated Clustering Algorithm (Ghosh et al.,
// NeurIPS 2020).
//
// The server keeps k cluster models. Every round each participating
// client downloads ALL k models, picks the one with the lowest loss on
// its local data (cluster-identity estimation), trains that model, and
// uploads the result; the server averages per cluster.
//
// The paper's critique that FedClust addresses: k must be chosen a
// priori, and broadcasting k models multiplies the download cost.
#pragma once

#include "algorithms/common.hpp"

namespace fedclust::algorithms {

struct IfcaConfig {
  std::size_t num_clusters = 2;
  /// Scale of the random perturbation that differentiates the k initial
  /// models (all derive from the federation's template).
  double init_perturbation = 0.05;
};

/// k cluster models (perturbed copies of the template); each round runs
/// identity estimation over the k delivered models, training on the
/// chosen model, and per-cluster aggregation. Sync-only: identities are
/// re-estimated every round.
class Ifca : public ClusteredAlgorithm {
 public:
  explicit Ifca(IfcaConfig config) : config_(config) {}

  std::string name() const override { return "IFCA"; }
  std::size_t begin(fl::Federation& federation,
                    fl::RunResult& result) override;
  double sync_round(fl::Federation& federation, std::size_t round) override;
  /// 1 + the highest label in use (the k models stay allocated).
  std::size_t num_clusters() const override;
  std::string async_refusal() const override {
    return "IFCA re-estimates cluster identities every round";
  }

  const IfcaConfig& config() const { return config_; }

 private:
  IfcaConfig config_;
};

}  // namespace fedclust::algorithms
