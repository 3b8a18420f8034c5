// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around calls into
// the library's public functions; nothing inside src/ is instrumented.
// A disabled tracer costs one branch per span. An enabled one appends
// (name, start, end, parent, thread) records under a mutex and writes
// them out at the end as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open offline.
//
// Self time of a span is its duration minus the time its direct child
// spans (same thread, strictly nested) cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span. `name` must be a string literal (stored by pointer).
  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< null when tracing is off
    std::size_t index_ = 0;
  };

  /// Per-name totals over every recorded span.
  struct Stat {
    std::vector<double> durations_s;  ///< one per span, in record order
    std::vector<double> self_s;       ///< duration minus direct children
  };
  std::map<std::string, Stat> summarize() const;

  /// Writes all spans as a Chrome trace-event JSON array ("X" events,
  /// microsecond timestamps). Returns false if the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

  std::size_t span_count() const;

 private:
  struct Record {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
    std::size_t parent = kNone;
    std::uint32_t tid = 0;
  };
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t open(const char* name);
  void close(std::size_t index);
  std::int64_t now_ns() const;

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

}  // namespace perfbench
