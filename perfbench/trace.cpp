#include "trace.hpp"

#include <atomic>
#include <fstream>
#include <iomanip>

namespace perfbench {

namespace {

// Open-span stack of the calling thread (indices into records_), so a
// new span knows its parent without any cross-thread bookkeeping.
thread_local std::vector<std::size_t> t_open;

std::uint32_t thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

Tracer::Span::Span(Tracer& tracer, const char* name) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  index_ = tracer.open(name);
}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::size_t Tracer::open(const char* name) {
  Record r;
  r.name = name;
  r.parent = t_open.empty() ? kNone : t_open.back();
  r.tid = thread_id();
  r.start_ns = now_ns();
  std::size_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = records_.size();
    records_.push_back(r);
  }
  t_open.push_back(index);
  return index;
}

void Tracer::close(std::size_t index) {
  const std::int64_t end = now_ns();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  records_[index].end_ns = end;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::map<std::string, Tracer::Stat> Tracer::summarize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent != kNone) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::map<std::string, Stat> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    Stat& s = out[r.name];
    s.durations_s.push_back(1e-9 * static_cast<double>(r.end_ns - r.start_ns));
    s.self_s.push_back(
        1e-9 * static_cast<double>(r.end_ns - r.start_ns - child_ns[i]));
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  out << std::fixed << std::setprecision(3) << "[\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << "{\"name\":\"" << r.name << "\",\"cat\":\"perfbench\",\"ph\":\"X\""
        << ",\"ts\":" << 1e-3 * static_cast<double>(r.start_ns)
        << ",\"dur\":" << 1e-3 * static_cast<double>(r.end_ns - r.start_ns)
        << ",\"pid\":1,\"tid\":" << r.tid << "}"
        << (i + 1 < records_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
