// LocalOnly — the no-communication reference point.
//
// Every client trains its own model from the common initialization and
// never talks to the server. Under extreme label skew this is a strong
// baseline (each client's problem is small), and it brackets the
// clustered methods from the other side than FedAvg does: FedAvg shares
// everything, LocalOnly shares nothing, clustered FL sits between.
// Not part of the paper's Table I; included as an analysis baseline.
#pragma once

#include "algorithms/common.hpp"

namespace fedclust::algorithms {

/// Every client is its own "cluster" (label i, model i); models persist
/// across rounds.
class LocalOnly : public ClusteredAlgorithm {
 public:
  LocalOnly() = default;

  std::string name() const override { return "LocalOnly"; }
  std::size_t begin(fl::Federation& federation,
                    fl::RunResult& result) override;
  double sync_round(fl::Federation& federation, std::size_t round) override;
};

}  // namespace fedclust::algorithms
