// Helpers shared by the clustered and global FL algorithms.
//
// Every method in this repo — FedAvg, FedProx, CFL, IFCA, PACFL, and
// FedClust itself — eventually runs "per-cluster FedAvg" rounds: members
// of each cluster download that cluster's model, train locally and are
// averaged back. Global methods are the one-cluster special case.
#pragma once

#include <span>
#include <vector>

#include "fl/algorithm.hpp"

namespace fedclust::algorithms {

/// One synchronous round of per-cluster FedAvg.
///
/// * samples participants via federation.sample_clients(round);
/// * each sampled client downloads its cluster's model (metered at full
///   model size), trains locally, uploads the result (metered);
/// * each cluster with at least one sampled member is replaced by the
///   sample-weighted average of its members' updates.
///
/// `labels[i]` is client i's cluster; `cluster_weights[c]` that cluster's
/// model, updated in place. Returns the mean training loss across
/// participants.
double per_cluster_fedavg_round(
    fl::Federation& federation, std::size_t round,
    const std::vector<std::size_t>& labels,
    std::vector<std::vector<float>>& cluster_weights,
    const fl::LocalTrainConfig* config_override = nullptr);

/// Server state most algorithms share — one label per client and one
/// model per cluster — with the fl::Algorithm hooks that only read or
/// write it: evaluation on each client's cluster model, the fingerprint
/// over the cluster models, the async cluster-model surface, and
/// checkpointing of labels + models.
class ClusteredAlgorithm : public fl::Algorithm {
 public:
  fl::AccuracySummary evaluate(const fl::Federation& federation) const override;
  std::uint64_t fingerprint() const override;
  std::size_t num_clusters() const override { return cluster_weights_.size(); }
  void finish(fl::RunResult& result) override;

  std::size_t cluster_of(std::size_t client) const override {
    return labels_.at(client);
  }
  std::span<const float> cluster_model(std::size_t cluster) const override;
  void set_cluster_model(std::size_t cluster,
                         std::vector<float> weights) override;

  void save_state(robust::RunCheckpoint& checkpoint) const override;
  void restore_state(fl::Federation& federation,
                     const robust::RunCheckpoint& checkpoint) override;

 protected:
  /// Every client in cluster 0; `clusters` copies of the template model.
  void reset(const fl::Federation& federation, std::size_t clusters);

  std::vector<std::size_t> labels_;
  std::vector<std::vector<float>> cluster_weights_;
};

}  // namespace fedclust::algorithms
