#include "algorithms/fedavg.hpp"

#include "check/audit.hpp"

namespace fedclust::algorithms {

std::size_t FedAvg::begin(fl::Federation& federation, fl::RunResult&) {
  reset(federation, 1);
  return 0;
}

double FedAvg::sync_round(fl::Federation& federation, std::size_t round) {
  return per_cluster_fedavg_round(federation, round, labels_, cluster_weights_,
                                  local_override());
}

std::size_t FedProx::begin(fl::Federation& federation,
                           fl::RunResult& result) {
  set_local(federation);
  return FedAvg::begin(federation, result);
}

void FedProx::restore_state(fl::Federation& federation,
                            const robust::RunCheckpoint& checkpoint) {
  set_local(federation);
  FedAvg::restore_state(federation, checkpoint);
}

void FedProx::set_local(const fl::Federation& federation) {
  local_ = federation.config().local;
  local_.sgd.prox_mu = mu_;
}

std::size_t FedAvgM::begin(fl::Federation& federation, fl::RunResult&) {
  FEDCLUST_REQUIRE(momentum_ >= 0.0 && momentum_ < 1.0,
                   "server momentum must be in [0, 1)");
  reset(federation, 1);
  velocity_.assign(federation.model_size(), 0.0f);
  return 0;
}

double FedAvgM::sync_round(fl::Federation& federation, std::size_t round) {
  std::vector<float>& global = cluster_weights_[0];
  const std::vector<std::size_t> participants =
      federation.sample_clients(round);
  for (std::size_t cid : participants) {
    federation.meter_download(cid, federation.model_size());
  }
  const std::vector<fl::ClientUpdate> updates = federation.train_clients(
      participants, round,
      [&](std::size_t) { return std::span<const float>(global); });
  double loss_sum = 0.0;
  for (const fl::ClientUpdate& u : updates) {
    federation.meter_upload(u.client_id, federation.model_size());
    loss_sum += u.train_loss;
  }

  // Server update: v = beta*v + (avg - w); w += v. A round in which
  // every client dropped out leaves the model untouched.
  if (!updates.empty()) {
    const std::vector<float> averaged = federation.aggregate(updates, global);
    const float beta = static_cast<float>(momentum_);
    for (std::size_t i = 0; i < global.size(); ++i) {
      velocity_[i] = beta * velocity_[i] + (averaged[i] - global[i]);
      global[i] += velocity_[i];
    }
  }
  return updates.empty() ? 0.0
                         : loss_sum / static_cast<double>(updates.size());
}

std::uint64_t FedAvgM::fingerprint() const {
  return check::weights_fingerprint(
      std::span<const float>(cluster_weights_[0]));
}

}  // namespace fedclust::algorithms
