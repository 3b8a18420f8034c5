#include "algorithms/local_only.hpp"

namespace fedclust::algorithms {

std::size_t LocalOnly::begin(fl::Federation& federation, fl::RunResult&) {
  const std::size_t n = federation.num_clients();
  reset(federation, n);
  for (std::size_t i = 0; i < n; ++i) labels_[i] = i;
  return 0;
}

double LocalOnly::sync_round(fl::Federation& federation, std::size_t round) {
  // Nothing ever crosses the wire; the zero/zero payload spec keeps the
  // network simulator out of the round entirely (comm stays at zero).
  const fl::NetPayloads no_traffic{0, 0, net::MessageKind::kModelUpdate};
  std::vector<std::size_t> everyone(federation.num_clients());
  for (std::size_t i = 0; i < everyone.size(); ++i) everyone[i] = i;
  std::vector<fl::ClientUpdate> updates = federation.train_clients(
      everyone, round,
      [&](std::size_t cid) {
        return std::span<const float>(cluster_weights_[cid]);
      },
      nullptr, /*allow_failures=*/true, &no_traffic);
  double loss_sum = 0.0;
  for (fl::ClientUpdate& u : updates) {
    loss_sum += u.train_loss;
    cluster_weights_[u.client_id] = std::move(u.weights);
  }
  // A round in which every client crashed reports 0, as every other
  // algorithm does.
  return updates.empty() ? 0.0
                         : loss_sum / static_cast<double>(updates.size());
}

}  // namespace fedclust::algorithms
