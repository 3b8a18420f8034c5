// The interface every FL algorithm (baselines and FedClust) implements,
// and the one synchronous round driver over it.
//
// Every method here has the same round shape (the clustered-FL template
// Ma et al. analyse): an optional formation phase, then rounds of
// "members of each cluster download its model, train, and are averaged
// back", evaluated on a fixed cadence. An algorithm supplies the pieces
// as hooks on its own state — begin() for formation, sync_round() for one
// round, evaluate()/fingerprint() for the metrics, after_round() for
// anything that reacts to a round's outcome — and run_synchronized() is
// the only loop that iterates synchronous rounds over them.
// fl/async.hpp drives the same objects through buffered flushes instead
// of lockstep rounds.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fl/metrics.hpp"

namespace fedclust::robust {
struct RunCheckpoint;
}

namespace fedclust::fl {

class Algorithm {
 public:
  virtual ~Algorithm() = default;

  /// Display name used in tables ("FedAvg", "FedClust", ...).
  virtual std::string name() const = 0;

  /// Executes `rounds` communication rounds (formation included) against
  /// the federation: run_synchronized(federation, *this, rounds).
  RunResult run(Federation& federation, std::size_t rounds);

  /// Continues a killed run from a checkpoint it wrote:
  /// resume_synchronized(federation, *this, checkpoint, rounds).
  RunResult resume(Federation& federation,
                   const robust::RunCheckpoint& checkpoint,
                   std::size_t rounds);

  // -- round hooks --------------------------------------------------------
  // Algorithms are reusable: begin() (or restore_state()) fully resets
  // the server-side state, so one object can drive several runs.

  /// Runs the formation phase (metering, simulated rounds, the round-0
  /// metrics entry when it has one) and resets the algorithm's state. The
  /// caller has already reset comm. Returns the first trainable round
  /// index (0 for the global baselines, CFL and IFCA; 1 for PACFL and
  /// FedClust).
  virtual std::size_t begin(Federation& federation, RunResult& result) = 0;

  /// One synchronous round. The caller has opened the comm round.
  /// Returns the round's mean train loss (0 when no update arrived).
  virtual double sync_round(Federation& federation, std::size_t round) = 0;

  /// Per-client accuracy of the models the algorithm currently serves.
  virtual AccuracySummary evaluate(const Federation& federation) const = 0;
  /// check::weights_fingerprint over the served server-side state.
  virtual std::uint64_t fingerprint() const = 0;
  virtual std::size_t num_clusters() const = 0;
  /// Copies final labels (and servable cluster models) into the result.
  virtual void finish(RunResult& result) = 0;

  /// Called by the driver after every round, once the round's metrics
  /// entry (if any) is in `result`. `accuracy` is the round's evaluation
  /// on eval rounds and null otherwise; on eval rounds the hook may patch
  /// result.rounds.back(). `last` marks the run's final round. Default:
  /// nothing.
  virtual void after_round(Federation& federation, std::size_t round,
                           bool last, const AccuracySummary* accuracy,
                           RunResult& result) {
    (void)federation;
    (void)round;
    (void)last;
    (void)accuracy;
    (void)result;
  }

  // -- async-mode surface (fl::run_async) ---------------------------------
  /// Why the algorithm cannot run buffered, or empty when it can. Buffered
  /// runs need cluster membership that is static after begin() and no
  /// per-round hook work.
  virtual std::string async_refusal() const {
    return name() + " has no buffered (async) form";
  }
  virtual std::size_t cluster_of(std::size_t client) const {
    (void)client;
    return 0;
  }
  virtual std::span<const float> cluster_model(std::size_t cluster) const;
  virtual void set_cluster_model(std::size_t cluster,
                                 std::vector<float> weights);
  /// Per-client local-training override the algorithm applies every
  /// round (FedProx's proximal term); null = the federation's config.
  virtual const LocalTrainConfig* local_override() const { return nullptr; }

  // -- checkpoint surface -------------------------------------------------
  /// Fills the algorithm-owned checkpoint fields (labels,
  /// cluster_weights, formation artifacts, detector state).
  virtual void save_state(robust::RunCheckpoint& checkpoint) const;
  /// Restores them on resume: the inverse of save_state plus begin()'s
  /// state setup, without re-running formation.
  virtual void restore_state(Federation& federation,
                             const robust::RunCheckpoint& checkpoint);
};

/// The synchronous driver: reset comm, formation via begin(), then per
/// round begin_round + sync_round, evaluation every
/// config().eval_every rounds and at the last, and after_round.
RunResult run_synchronized(Federation& federation, Algorithm& algorithm,
                           std::size_t rounds);

/// The same loop continued from `checkpoint.next_round`: restores the
/// run state (checkpoint_run's fields) and the algorithm's own
/// (restore_state), then runs the remaining rounds. The federation must
/// be built with the same data, config and seed; every per-(round,
/// client) stream derives from the seed, so the resumed trajectory is
/// bit-identical to the uninterrupted one.
RunResult resume_synchronized(Federation& federation, Algorithm& algorithm,
                              const robust::RunCheckpoint& checkpoint,
                              std::size_t rounds);

/// The engine-owned part of a checkpoint: next_round, seed, the metrics
/// so far, the comm series, the network clock and log (when simulated)
/// and the quarantine ledger. Shared by the sync and async drivers;
/// algorithms add their fields through save_state.
robust::RunCheckpoint checkpoint_run(const Federation& federation,
                                     const RunResult& result,
                                     std::size_t next_round);

/// Inverse of checkpoint_run: checks the seed and the network setting,
/// restores comm, network and quarantine into `federation`, and returns
/// the recorded metrics.
RunResult restore_run(Federation& federation,
                      const robust::RunCheckpoint& checkpoint);

}  // namespace fedclust::fl
