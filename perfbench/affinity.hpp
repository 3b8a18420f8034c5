// CPU placement of the benchmark's own threads.
//
// On a shared VM the speed of one vCPU can drift by up to 2x within
// seconds while its neighbours run at full speed, so single-threaded
// work timed on one CPU measures that CPU as much as the code. The
// benchmark therefore rotates repeated single-threaded measurements
// over every CPU it may use and reports medians across them, and keeps
// the serving generator apart from the engine's workers.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <vector>

namespace perfbench {

/// Remembers the calling thread's CPU affinity and restores it when
/// destroyed. Threads created while a restriction is in force inherit it.
class ScopedAffinity {
 public:
  ScopedAffinity() {
    CPU_ZERO(&original_);
    if (pthread_getaffinity_np(pthread_self(), sizeof original_,
                               &original_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;
  ~ScopedAffinity() {
    if (changed_) {
      pthread_setaffinity_np(pthread_self(), sizeof original_, &original_);
    }
  }

  /// CPUs the thread could use at construction, ascending (empty when
  /// the affinity could not be read).
  const std::vector<int>& cpus() const { return cpus_; }

  /// Restricts the calling thread to `cpus`; false if not applied.
  bool restrict_to(const std::vector<int>& cpus) {
    if (cpus.empty()) return false;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus) CPU_SET(cpu, &set);
    const bool ok =
        pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
    changed_ = changed_ || ok;
    return ok;
  }

  /// Pins the calling thread to the k-th usable CPU, cycling.
  bool pin_nth(std::size_t k) {
    return !cpus_.empty() && restrict_to({cpus_[k % cpus_.size()]});
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  bool changed_ = false;
};

}  // namespace perfbench
