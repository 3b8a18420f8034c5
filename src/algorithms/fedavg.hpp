// FedAvg (McMahan et al., AISTATS 2017) — the canonical FL baseline —
// and FedProx (Li et al., MLSys 2020), which adds a proximal term to the
// local objective to curb client drift under heterogeneity.
#pragma once

#include "algorithms/common.hpp"

namespace fedclust::algorithms {

/// Single global model, sample-weighted averaging each round: the
/// one-cluster case of per-cluster FedAvg. Async-capable.
class FedAvg : public ClusteredAlgorithm {
 public:
  FedAvg() = default;

  std::string name() const override { return "FedAvg"; }
  std::size_t begin(fl::Federation& federation,
                    fl::RunResult& result) override;
  double sync_round(fl::Federation& federation, std::size_t round) override;
  std::string async_refusal() const override { return {}; }
};

/// FedAvg whose local objective is F_i(w) + (mu/2)||w - w_global||^2,
/// anchored at the model each client downloads (train_local captures the
/// reference at entry).
class FedProx : public FedAvg {
 public:
  explicit FedProx(double mu = 0.01) : mu_(mu) {}

  std::string name() const override { return "FedProx"; }
  std::size_t begin(fl::Federation& federation,
                    fl::RunResult& result) override;
  void restore_state(fl::Federation& federation,
                     const robust::RunCheckpoint& checkpoint) override;
  const fl::LocalTrainConfig* local_override() const override {
    return &local_;
  }

  double mu() const { return mu_; }

 private:
  void set_local(const fl::Federation& federation);

  double mu_;
  fl::LocalTrainConfig local_;
};

/// FedAvgM (Hsu et al., 2019): FedAvg with server-side momentum — the
/// server treats the averaged client delta as a pseudo-gradient and
/// applies it through a momentum buffer. Dampens the oscillations that
/// label-skew drift induces in plain FedAvg. Extension baseline (not in
/// the paper's Table I). Sync-only, and not checkpointable: the momentum
/// buffer is not part of the checkpoint format.
class FedAvgM : public ClusteredAlgorithm {
 public:
  explicit FedAvgM(double server_momentum = 0.9)
      : momentum_(server_momentum) {}

  std::string name() const override { return "FedAvgM"; }
  std::size_t begin(fl::Federation& federation,
                    fl::RunResult& result) override;
  double sync_round(fl::Federation& federation, std::size_t round) override;
  std::uint64_t fingerprint() const override;

  void save_state(robust::RunCheckpoint& checkpoint) const override {
    fl::Algorithm::save_state(checkpoint);
  }
  void restore_state(fl::Federation& federation,
                     const robust::RunCheckpoint& checkpoint) override {
    fl::Algorithm::restore_state(federation, checkpoint);
  }

  double server_momentum() const { return momentum_; }

 private:
  double momentum_;
  std::vector<float> velocity_;
};

}  // namespace fedclust::algorithms
