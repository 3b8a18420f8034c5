#include "algorithms/common.hpp"

#include <algorithm>

#include "check/audit.hpp"
#include "robust/checkpoint.hpp"

namespace fedclust::algorithms {

double per_cluster_fedavg_round(
    fl::Federation& federation, std::size_t round,
    const std::vector<std::size_t>& labels,
    std::vector<std::vector<float>>& cluster_weights,
    const fl::LocalTrainConfig* config_override) {
  FEDCLUST_REQUIRE(labels.size() == federation.num_clients(),
                   "labels must cover every client");
  for (std::size_t l : labels) {
    FEDCLUST_REQUIRE(l < cluster_weights.size(),
                     "cluster label " << l << " has no model");
  }

  const std::vector<std::size_t> participants =
      federation.sample_clients(round);

  // Everyone downloads their cluster model; everyone who arrives in time
  // uploads a full one.
  for (std::size_t cid : participants) {
    federation.meter_download(cid, federation.model_size());
  }

  const std::vector<fl::ClientUpdate> updates = federation.train_clients(
      participants, round,
      [&](std::size_t cid) {
        return std::span<const float>(cluster_weights[labels[cid]]);
      },
      config_override);

  double loss_sum = 0.0;
  for (const fl::ClientUpdate& u : updates) {
    federation.meter_upload(u.client_id, federation.model_size());
    loss_sum += u.train_loss;
  }

  // Group this round's updates by cluster and average.
  std::vector<std::vector<fl::ClientUpdate>> by_cluster(
      cluster_weights.size());
  for (const fl::ClientUpdate& u : updates) {
    by_cluster[labels[u.client_id]].push_back(u);
  }
  for (std::size_t c = 0; c < by_cluster.size(); ++c) {
    if (!by_cluster[c].empty()) {
      cluster_weights[c] = federation.aggregate(by_cluster[c],
                                                cluster_weights[c]);
    }
  }
  return updates.empty() ? 0.0
                         : loss_sum / static_cast<double>(updates.size());
}

fl::AccuracySummary ClusteredAlgorithm::evaluate(
    const fl::Federation& federation) const {
  FEDCLUST_REQUIRE(labels_.size() == federation.num_clients(),
                   "labels must cover every client");
  return federation.evaluate_personalized([&](std::size_t cid) {
    return std::span<const float>(cluster_weights_[labels_[cid]]);
  });
}

std::uint64_t ClusteredAlgorithm::fingerprint() const {
  return check::weights_fingerprint(cluster_weights_);
}

void ClusteredAlgorithm::finish(fl::RunResult& result) {
  result.cluster_labels = labels_;
}

std::span<const float> ClusteredAlgorithm::cluster_model(
    std::size_t cluster) const {
  return std::span<const float>(cluster_weights_.at(cluster));
}

void ClusteredAlgorithm::set_cluster_model(std::size_t cluster,
                                           std::vector<float> weights) {
  cluster_weights_.at(cluster) = std::move(weights);
}

void ClusteredAlgorithm::save_state(robust::RunCheckpoint& checkpoint) const {
  checkpoint.labels.assign(labels_.begin(), labels_.end());
  checkpoint.cluster_weights = cluster_weights_;
}

void ClusteredAlgorithm::restore_state(
    fl::Federation& federation, const robust::RunCheckpoint& checkpoint) {
  FEDCLUST_REQUIRE(checkpoint.labels.size() == federation.num_clients(),
                   "checkpoint covers " << checkpoint.labels.size()
                                        << " clients, federation has "
                                        << federation.num_clients());
  labels_.assign(checkpoint.labels.begin(), checkpoint.labels.end());
  cluster_weights_ = checkpoint.cluster_weights;
}

void ClusteredAlgorithm::reset(const fl::Federation& federation,
                               std::size_t clusters) {
  labels_.assign(federation.num_clients(), 0);
  cluster_weights_.assign(clusters, federation.template_model().flat_weights());
}

}  // namespace fedclust::algorithms
