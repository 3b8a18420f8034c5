#include "fl/algorithm.hpp"

#include <utility>

#include "robust/checkpoint.hpp"
#include "utils/error.hpp"

namespace fedclust::fl {
namespace {

/// The one synchronous round loop: rounds [first, rounds), each evaluated
/// on the cadence every algorithm uses, then finish().
void drive_rounds(Federation& federation, Algorithm& algorithm,
                  std::size_t first, std::size_t rounds, RunResult& result) {
  for (std::size_t round = first; round < rounds; ++round) {
    federation.comm().begin_round(round);
    const double loss = algorithm.sync_round(federation, round);
    const bool last = round + 1 == rounds;
    const bool eval = last || (round + 1) % federation.config().eval_every == 0;
    AccuracySummary acc;
    if (eval) {
      acc = algorithm.evaluate(federation);
      result.rounds.push_back(make_round_metrics(round, acc, loss, federation,
                                                 algorithm.num_clusters(),
                                                 algorithm.fingerprint()));
    }
    algorithm.after_round(federation, round, last, eval ? &acc : nullptr,
                          result);
    if (last) result.final_accuracy = std::move(acc);
  }
  algorithm.finish(result);
}

}  // namespace

RunResult Algorithm::run(Federation& federation, std::size_t rounds) {
  return run_synchronized(federation, *this, rounds);
}

RunResult Algorithm::resume(Federation& federation,
                            const robust::RunCheckpoint& checkpoint,
                            std::size_t rounds) {
  return resume_synchronized(federation, *this, checkpoint, rounds);
}

std::span<const float> Algorithm::cluster_model(std::size_t cluster) const {
  (void)cluster;
  FEDCLUST_CHECK(false, name() << " does not expose async cluster models");
  return {};
}

void Algorithm::set_cluster_model(std::size_t cluster,
                                  std::vector<float> weights) {
  (void)cluster;
  (void)weights;
  FEDCLUST_CHECK(false, name() << " does not expose async cluster models");
}

void Algorithm::save_state(robust::RunCheckpoint& checkpoint) const {
  (void)checkpoint;
  FEDCLUST_CHECK(false, name() << " does not support checkpoints");
}

void Algorithm::restore_state(Federation& federation,
                              const robust::RunCheckpoint& checkpoint) {
  (void)federation;
  (void)checkpoint;
  FEDCLUST_CHECK(false, name() << " does not support checkpoints");
}

RunResult run_synchronized(Federation& federation, Algorithm& algorithm,
                           std::size_t rounds) {
  federation.reset_comm();
  RunResult result;
  result.algorithm = algorithm.name();
  const std::size_t first = algorithm.begin(federation, result);
  FEDCLUST_REQUIRE(rounds > first,
                   algorithm.name() << " needs more than " << first
                                    << " rounds (formation included)");
  drive_rounds(federation, algorithm, first, rounds, result);
  return result;
}

RunResult resume_synchronized(Federation& federation, Algorithm& algorithm,
                              const robust::RunCheckpoint& checkpoint,
                              std::size_t rounds) {
  FEDCLUST_REQUIRE(checkpoint.next_round >= 1 && checkpoint.next_round < rounds,
                   "cannot resume at round " << checkpoint.next_round
                                             << " of a " << rounds
                                             << "-round run");
  algorithm.restore_state(federation, checkpoint);
  RunResult result = restore_run(federation, checkpoint);
  result.algorithm = algorithm.name();
  FEDCLUST_REQUIRE(federation.comm().round_count() == checkpoint.next_round,
                   "checkpoint comm series inconsistent with round index");
  federation.drift_resume(checkpoint.next_round);
  drive_rounds(federation, algorithm, checkpoint.next_round, rounds, result);
  return result;
}

robust::RunCheckpoint checkpoint_run(const Federation& federation,
                                     const RunResult& result,
                                     std::size_t next_round) {
  robust::RunCheckpoint ck;
  ck.next_round = next_round;
  ck.seed = federation.config().seed;
  ck.rounds.reserve(result.rounds.size());
  for (const RoundMetrics& m : result.rounds) {
    ck.rounds.push_back(robust::RoundRecord{.round = m.round,
                                            .acc_mean = m.acc_mean,
                                            .acc_std = m.acc_std,
                                            .train_loss = m.train_loss,
                                            .cum_upload = m.cum_upload,
                                            .cum_download = m.cum_download,
                                            .num_clusters = m.num_clusters,
                                            .sim_seconds = m.sim_seconds,
                                            .weights_fp = m.weights_fp,
                                            .drift_score = m.drift_score,
                                            .drift_alarms = m.drift_alarms,
                                            .reclusters = m.reclusters});
  }
  const CommMeter& comm = federation.comm();
  ck.comm.round_download = comm.round_download();
  ck.comm.round_upload = comm.round_upload();
  ck.comm.client_download = comm.per_client_download();
  ck.comm.client_upload = comm.per_client_upload();
  ck.comm.total_download = comm.total_download();
  ck.comm.total_upload = comm.total_upload();
  if (federation.network_enabled()) {
    ck.net.present = true;
    ck.net.clock = federation.network()->now();
    ck.net.log = federation.network()->log();
  }
  const robust::Quarantine& q = federation.quarantine();
  ck.quarantine_counts.assign(q.strike_counts().begin(),
                              q.strike_counts().end());
  ck.quarantine_max_strikes = q.max_strikes();
  return ck;
}

RunResult restore_run(Federation& federation,
                      const robust::RunCheckpoint& checkpoint) {
  FEDCLUST_REQUIRE(checkpoint.seed == federation.config().seed,
                   "checkpoint seed " << checkpoint.seed
                                      << " does not match federation seed "
                                      << federation.config().seed);
  FEDCLUST_REQUIRE(
      checkpoint.net.present == federation.network_enabled(),
      "checkpoint and federation disagree on the network simulator");
  federation.comm().restore(checkpoint.comm.round_download,
                            checkpoint.comm.round_upload,
                            checkpoint.comm.client_download,
                            checkpoint.comm.client_upload,
                            checkpoint.comm.total_download,
                            checkpoint.comm.total_upload);
  if (federation.network_enabled()) {
    federation.network()->restore(checkpoint.net.clock, checkpoint.net.log);
  }
  federation.quarantine().restore(
      std::vector<std::size_t>(checkpoint.quarantine_counts.begin(),
                               checkpoint.quarantine_counts.end()),
      checkpoint.quarantine_max_strikes);

  RunResult result;
  result.rounds.reserve(checkpoint.rounds.size());
  for (const robust::RoundRecord& m : checkpoint.rounds) {
    result.rounds.push_back(RoundMetrics{
        .round = static_cast<std::size_t>(m.round),
        .acc_mean = m.acc_mean,
        .acc_std = m.acc_std,
        .train_loss = m.train_loss,
        .cum_upload = m.cum_upload,
        .cum_download = m.cum_download,
        .num_clusters = static_cast<std::size_t>(m.num_clusters),
        .sim_seconds = m.sim_seconds,
        .weights_fp = m.weights_fp,
        .drift_score = m.drift_score,
        .drift_alarms = static_cast<std::size_t>(m.drift_alarms),
        .reclusters = static_cast<std::size_t>(m.reclusters)});
  }
  return result;
}

}  // namespace fedclust::fl
