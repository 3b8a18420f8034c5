// perfbench: the benchmark of record for the FedClust reproduction.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>] [--tree <source digest>]
//
// Untraced (--trace 0): sets up the workload's inputs several times
// (setup_s is the median), trains FedClust repeatedly for a share of
// --seconds, admits the held-out newcomers, then serves the trained
// cluster heads open-loop at the nominal rate and up a rate ladder.
// Prints every end-to-end metric.
//
// Traced (--trace 1): a warm-up and an untraced reference training run,
// the same run re-driven through the public Federation calls under spans,
// the layer
// probes, and a nominal-rate serving step. Prints every per-layer
// metric and writes the spans as Chrome trace-event JSON.
//
// Stdout's last line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Any failed correctness check exits nonzero
// without printing it.
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "affinity.hpp"
#include "bench.hpp"
#include "tensor/kernels.hpp"

namespace perfbench {
namespace {

/// Set-up repetitions; setup_s is their median.
constexpr std::size_t kSetupReps = 3;
/// Training repetitions fill this share of --seconds, and at least
/// kMinTrainReps run so the median is a warm one.
constexpr double kTrainShare = 0.65;
constexpr std::size_t kMinTrainReps = 3;
/// Newcomer admission passes after each training repetition, each on
/// the next CPU in turn.
constexpr std::size_t kNewcomerPassesPerRep = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = "perfbench_trace.json";
  std::string tree = "unknown";
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <table1_cifar|cross_device_1k> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--tree <digest>]\n");
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw Error("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else if (key == "--tree") {
      a.tree = value;
    } else {
      throw Error("unknown argument " + key);
    }
  }
  if (a.workload.empty() || a.seconds <= 0.0) throw Error("bad arguments");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Sum of a span's durations (or self times) divided by `per`.
double span_total(const std::map<std::string, Tracer::Stat>& stats,
                  const std::string& name, bool self, double per = 1.0) {
  const auto it = stats.find(name);
  if (it == stats.end()) throw Error("no span recorded for " + name);
  double total = 0.0;
  for (const double s : self ? it->second.self_s : it->second.durations_s) {
    total += s;
  }
  return total / per;
}

double span_median(const std::map<std::string, Tracer::Stat>& stats,
                   const std::string& name) {
  const auto it = stats.find(name);
  if (it == stats.end()) throw Error("no span recorded for " + name);
  return median(it->second.durations_s);
}

/// Builds the inputs `reps` times; returns the last build and fills the
/// per-build wall times.
Inputs setup(const FlSpec& spec, std::uint64_t seed, Tracer& tracer,
             std::vector<double>& setup_s) {
  Inputs inputs;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    inputs = build_inputs(spec, seed, tracer);
    setup_s.push_back(seconds_since(t0));
  }
  return inputs;
}

void run_untraced(const WorkloadSpec& w, const Args& a, Report& report,
                  std::size_t& train_reps) {
  Tracer off(false);
  std::vector<double> setup_s;
  Inputs inputs = setup(w.fl, a.seed, off, setup_s);
  fl::Federation& fed = *inputs.federation;

  // Timed training repetitions on identical inputs, each followed by
  // newcomer admission passes. Every repetition must reproduce the first
  // one's weights and every pass its newcomer assignments. The driving
  // thread, which runs the single-threaded parts (clustering,
  // aggregation, admission), moves to the next CPU for each repetition
  // and each pass.
  std::vector<double> run_s, formation_s, round_s, newcomer_p50, newcomer_p90;
  TrainRun last;
  NewcomerPass first_pass;
  const auto t0 = std::chrono::steady_clock::now();
  const double budget = kTrainShare * a.seconds;
  double rep_s = 0.0;
  // Stop when another repetition would overrun the budget.
  while (run_s.size() < kMinTrainReps ||
         seconds_since(t0) + rep_s <= budget) {
    const auto tr = std::chrono::steady_clock::now();
    const std::size_t rep = run_s.size();
    ScopedAffinity pin;
    pin.pin_nth(rep);
    TrainRun run = train(fed, w.fl, off);
    if (!run_s.empty() && run.fingerprint != last.fingerprint) {
      fail_check("training repetition changed the weights fingerprint");
    }
    run_s.push_back(run.run_s);
    formation_s.push_back(run.formation_s);
    round_s.insert(round_s.end(), run.round_s.begin(), run.round_s.end());
    for (std::size_t p = 0; p < kNewcomerPassesPerRep; ++p) {
      pin.pin_nth(kNewcomerPassesPerRep * rep + p);
      const NewcomerPass pass = admit_newcomers(
          fed, w.fl, run.adapter->outcome(), inputs.newcomers, a.seed, off);
      if (first_pass.cluster.empty()) {
        first_pass = pass;
      } else if (pass.cluster != first_pass.cluster) {
        fail_check("newcomers changed cluster between admission passes");
      }
      newcomer_p50.push_back(quantile(pass.latency_ms, 0.5));
      newcomer_p90.push_back(quantile(pass.latency_ms, 0.9));
    }
    std::fprintf(stderr, "[perfbench] rep %zu: run %.3fs formation %.3fs "
                 "acc %.2f%% k=%zu newcomer p50 %.3fms\n", run_s.size(),
                 run.run_s, run.formation_s, run.final_acc, run.clusters,
                 newcomer_p50.back());
    last = std::move(run);
    rep_s = seconds_since(tr);
  }
  train_reps = run_s.size();
  check_formation(*last.adapter, w.fl, off);

  report.set("setup_s", median(setup_s), "s");
  report.set("run_s", median(run_s), "s");
  report.set("formation_s", median(formation_s), "s");
  report.set("round_s", median(round_s), "s");
  report.set("final_acc", last.final_acc, "%");
  report.set("upload_mb", last.upload_mb, "MB");
  // Quantiles per admission pass, then their mean across passes. The
  // passes are spread over the run and over the CPUs, and one vCPU can
  // run a pass 1.5x slower than another: a median over a handful of
  // passes jumps between those speeds, a mean moves in proportion.
  report.set("newcomer_p50_ms", mean(newcomer_p50), "ms");
  report.set("newcomer_p90_ms", mean(newcomer_p90), "ms");
  report.attempted +=
      train_reps * (1 + kNewcomerPassesPerRep * inputs.newcomers.size());

  serve(fed, last, w.nominal_rps, a.seconds, a.seed, off, report);
}

void run_traced(const WorkloadSpec& w, const Args& a, Report& report) {
  Tracer tracer(true);
  Tracer off(false);
  std::vector<double> setup_s;
  Inputs inputs = setup(w.fl, a.seed, tracer, setup_s);
  fl::Federation& fed = *inputs.federation;

  // The reference run (untraced) and the same run through the public
  // Federation calls under spans: weights must match bit for bit, and
  // the run_s ratio is the tracing overhead. A first, discarded run takes
  // the process's cold costs, so neither side pays them.
  (void)train(fed, w.fl, off);
  const TrainRun reference = train(fed, w.fl, off);
  const TrainRun traced = train(fed, w.fl, tracer);
  if (traced.fingerprint != reference.fingerprint) {
    fail_check("traced rounds diverged from the adapter's own rounds");
  }
  check_formation(*traced.adapter, w.fl, tracer);
  const NewcomerPass newcomers =
      admit_newcomers(fed, w.fl, traced.adapter->outcome(), inputs.newcomers,
                      a.seed, tracer);
  probe_layers(fed, traced, a.seed, tracer, report);
  serve(fed, traced, w.nominal_rps, a.seconds, a.seed, tracer, report);
  report.attempted += 2 + newcomers.cluster.size();

  const auto stats = tracer.summarize();
  const double setups = static_cast<double>(kSetupReps);
  const double rounds = static_cast<double>(traced.round_s.size());
  report.set("data.generate_s", span_total(stats, "data.generate", false,
                                           setups), "s");
  report.set("partition.split_s",
             span_total(stats, "partition.split", false, setups), "s");
  const double proximity = span_total(stats, "cluster.proximity", false);
  const double agglomerative =
      span_total(stats, "cluster.agglomerative", false);
  // begin() runs proximity + clustering internally; the re-run above
  // times the same calls, so formation self time is begin() minus them.
  report.set("core.formation_s",
             span_total(stats, "core.formation", true) - proximity -
                 agglomerative,
             "s");
  report.set("cluster.proximity_s", proximity, "s");
  report.set("cluster.agglomerative_s", agglomerative, "s");
  report.set("cluster.clusters", static_cast<double>(traced.clusters),
             "count");
  report.set("core.newcomer_ms", 1e3 * span_median(stats, "core.newcomer"),
             "ms");
  report.set("fl.train_clients_s",
             span_total(stats, "fl.train_clients", false, rounds), "s");
  report.set("fl.aggregate_s", span_total(stats, "fl.aggregate", false, rounds),
             "s");
  report.set("fl.sample_s",
             span_total(stats, "fl.sample_clients", false, rounds), "s");
  report.set("fl.evaluate_s", span_total(stats, "fl.evaluate", false), "s");
  report.set("fl.updates_solicited",
             static_cast<double>(traced.updates_solicited), "count");
  report.set("fl.updates_arrived", static_cast<double>(traced.updates_arrived),
             "count");
  report.set("fl.samples_trained", static_cast<double>(traced.samples_trained),
             "count");
  report.set("fl.model_clones",
             static_cast<double>(fed.model_pool().created()), "count");
  report.set("trace.overhead_ratio", traced.run_s / reference.run_s, "x");

  if (!tracer.write_chrome_json(a.trace_out)) {
    throw Error("cannot write trace file " + a.trace_out);
  }
  std::fprintf(stderr, "[perfbench] %zu spans written to %s\n",
               tracer.span_count(), a.trace_out.c_str());
}

int run(const Args& a) {
  const WorkloadSpec w = workload_spec(a.workload);
  Report report;
  std::size_t train_reps = 1;
  if (a.trace) {
    run_traced(w, a, report);
  } else {
    run_untraced(w, a, report, train_reps);
  }

  // Provenance line, then the result line (always last).
  std::printf(
      "{\"info\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"tree\": %s, \"cpu\": %s, \"nproc\": %u, "
      "\"simd\": %s, \"train_threads\": %zu, \"serve_workers\": %zu, "
      "\"serve_generators\": 1, \"setup_reps\": %zu, \"train_reps\": %zu}}\n",
      json_string(a.workload).c_str(),
      static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0,
      json_string(a.tree).c_str(), json_string(cpu_model()).c_str(),
      std::thread::hardware_concurrency(),
      json_string(ops::kernels().name).c_str(), w.fl.engine.threads,
      kServeWorkers, kSetupReps, train_reps);

  std::string metrics;
  for (const auto& [name, v] : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", v.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name) + ": {\"value\": " + value +
               ", \"unit\": " + json_string(v.unit) + "}";
  }
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    perfbench::usage();
    return 1;
  }
}
