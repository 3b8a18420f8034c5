// Determinism audit: proves an algorithm's trajectory is bit-identical
// across kernel-thread counts.
//
// The engine documents a strong claim (federation.hpp): all randomness
// derives from config.seed through splittable per-(client, round)
// streams, and the blocked-GEMM kernel pool splits output rows into
// disjoint ranges, so results are bit-identical regardless of thread
// count. This harness is the test of that claim. It runs the same
// algorithm through the one synchronous round driver (Algorithm::run,
// i.e. fl::run_synchronized) against freshly built federations that
// differ ONLY in config.kernel_threads and compares, round by evaluated
// round, the FNV-1a fingerprint of the aggregated weights
// (RoundMetrics::weights_fp) plus the bit patterns of the accuracy/loss
// metrics — any reduction reordering, data race, or uninitialized read
// shows up as a fingerprint divergence in the first affected round.
//
// Header-only on purpose: fedclust_check sits below fedclust_fl in the
// link order (the engine calls the audit functions), so the harness —
// which drives fl::Algorithm — must not add code to the check library.
#pragma once

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fl/algorithm.hpp"
#include "fl/federation.hpp"

namespace fedclust::check {

/// Outcome of one determinism comparison.
struct DeterminismReport {
  bool identical = true;
  /// Human-readable descriptions of every divergence found (empty when
  /// identical). Each names the kernel-thread count, round, and field.
  std::vector<std::string> mismatches;
  /// Evaluated rounds compared per run.
  std::size_t rounds_compared = 0;
  /// The kernel-thread counts exercised, in order (first is reference).
  std::vector<std::size_t> kernel_thread_counts;
};

/// Runs a fresh algorithm instance from `make_algorithm` against a fresh
/// federation from `make_federation(kernel_threads)` for each entry of
/// `kernel_thread_counts`, comparing every evaluated round's weight
/// fingerprint and metric bit patterns against the first run. The
/// factories must build identically configured objects apart from the
/// kernel-thread count (same seed, same data, same model init).
///
/// The factories are template parameters (not std::function) because
/// fl::Federation owns a ThreadPool and is neither copyable nor movable:
/// `make_federation` must return it as a prvalue, which only guaranteed
/// copy elision through a direct call can preserve.
template <typename AlgorithmFactory, typename FederationFactory>
DeterminismReport determinism_audit(
    AlgorithmFactory&& make_algorithm, FederationFactory&& make_federation,
    std::size_t rounds,
    const std::vector<std::size_t>& kernel_thread_counts) {
  FEDCLUST_REQUIRE(kernel_thread_counts.size() >= 2,
                   "determinism audit needs at least two thread counts");
  DeterminismReport report;
  report.kernel_thread_counts = kernel_thread_counts;

  const auto run_one = [&](std::size_t kernel_threads) {
    fl::Federation federation = make_federation(kernel_threads);
    return make_algorithm()->run(federation, rounds);
  };

  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const fl::RunResult reference = run_one(kernel_thread_counts.front());
  report.rounds_compared = reference.rounds.size();

  for (std::size_t t = 1; t < kernel_thread_counts.size(); ++t) {
    const std::size_t kt = kernel_thread_counts[t];
    const fl::RunResult other = run_one(kt);
    const auto mismatch = [&](const std::string& what) {
      report.identical = false;
      std::ostringstream oss;
      oss << reference.algorithm << " kernel_threads "
          << kernel_thread_counts.front() << " vs " << kt << ": " << what;
      report.mismatches.push_back(oss.str());
    };

    if (other.rounds.size() != reference.rounds.size()) {
      std::ostringstream oss;
      oss << other.rounds.size() << " evaluated rounds vs "
          << reference.rounds.size();
      mismatch(oss.str());
      continue;
    }
    for (std::size_t r = 0; r < reference.rounds.size(); ++r) {
      const fl::RoundMetrics& a = reference.rounds[r];
      const fl::RoundMetrics& b = other.rounds[r];
      std::ostringstream oss;
      if (a.weights_fp != b.weights_fp) {
        oss << "round " << a.round << " weight fingerprint " << std::hex
            << b.weights_fp << " vs " << a.weights_fp;
      } else if (bits(a.acc_mean) != bits(b.acc_mean) ||
                 bits(a.acc_std) != bits(b.acc_std)) {
        oss << "round " << a.round << " accuracy bits differ (" << b.acc_mean
            << " vs " << a.acc_mean << ")";
      } else if (bits(a.train_loss) != bits(b.train_loss)) {
        oss << "round " << a.round << " train-loss bits differ ("
            << b.train_loss << " vs " << a.train_loss << ")";
      } else if (a.cum_upload != b.cum_upload ||
                 a.cum_download != b.cum_download) {
        oss << "round " << a.round << " byte counters differ";
      } else if (a.num_clusters != b.num_clusters) {
        oss << "round " << a.round << " cluster count " << b.num_clusters
            << " vs " << a.num_clusters;
      } else {
        continue;
      }
      mismatch(oss.str());
      break;  // later rounds diverge as a consequence; report the first
    }
    if (other.cluster_labels != reference.cluster_labels) {
      mismatch("final cluster labels differ");
    }
  }
  return report;
}

}  // namespace fedclust::check
