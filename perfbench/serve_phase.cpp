// Open-loop serving of the trained cluster heads.
//
// One generator thread (the caller) submits requests on a fixed
// schedule: request i is due at t0 + i / rate, whether or not earlier
// ones have been answered, because users arrive independently. Latency
// runs from when a request was due to when the engine fulfilled it, so
// a stall also charges the wait it imposes on the requests behind it.
#include <cmath>
#include <future>

#include "affinity.hpp"
#include "bench.hpp"
#include "serve/batching.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxBatch = 32;
/// Share of --seconds spent at the nominal rate.
constexpr double kNominalShare = 0.12;
/// Requests in the closed burst that estimates capacity.
constexpr std::size_t kBurstRequests = 2000;
/// Ladder step duration and geometric factor between steps.
constexpr double kStepS = 0.5;
constexpr double kLadderFactor = 1.03;
/// Ladder limit on a step's median latency (ms, from when each request
/// was due). A median, not a p99: on a shared VM, host stalls of tens
/// of milliseconds set the p99 of every step, loaded or not.
constexpr double kP50LimitMs = 2.0;
/// A request answered later than this counts as failed.
constexpr double kFailMs = 100.0;
/// Every K-th served request is re-run through BatchingEngine::infer
/// and must match bit for bit.
constexpr std::size_t kCheckEvery = 64;

/// Distinct requests the schedule cycles through: request j impersonates
/// a formation reporter, sending one of its own test images with its
/// formation upload as the routing features.
struct RequestPool {
  std::vector<Tensor> inputs;
  std::vector<std::vector<float>> features;
};

RequestPool make_pool(const fl::Federation& federation,
                      const core::ClusteringOutcome& outcome,
                      std::size_t distinct, std::uint64_t seed) {
  RequestPool pool;
  Rng rng = Rng(seed).split(301);
  const std::vector<std::size_t>& reporters = outcome.reporters;
  for (std::size_t j = 0; j < distinct; ++j) {
    const std::size_t client = reporters[rng.uniform_int(reporters.size())];
    const auto shard = federation.client_data(client);
    const std::size_t idx[] = {
        static_cast<std::size_t>(rng.uniform_int(shard->test.size()))};
    pool.inputs.push_back(shard->test.gather(idx).images);
    pool.features.push_back(outcome.partial_weights[client]);
  }
  return pool;
}

struct StepResult {
  double rate = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t late = 0;  ///< answered past kFailMs
  std::uint64_t batches = 0;
  std::vector<double> latency_ms;  ///< due -> fulfilled
  std::vector<double> engine_ms;   ///< submit -> fulfilled (engine's own)
  std::vector<double> late_ms;     ///< submit - due (generator lateness)
  double batch_rows_sum = 0.0;

  /// The step kept up: nothing shed, and the median request was
  /// answered within the limit (a growing backlog pushes the median up
  /// within one step; host stalls move only the tail).
  bool meets(double p50_limit_ms) const {
    return rejected == 0 && timeouts == 0 && !latency_ms.empty() &&
           quantile(latency_ms, 0.5) <= p50_limit_ms;
  }
};

/// Spins until `due`. Sleeping would add the host's timer wake-up
/// latency (often over a millisecond in a VM) to every request.
void wait_until(Clock::time_point due) {
  while (Clock::now() < due) {
  }
}

StepResult run_step(serve::BatchingEngine& engine, const RequestPool& pool,
                    double rate, double duration_s,
                    Tracer& tracer) {
  StepResult out;
  out.rate = rate;
  const auto n = static_cast<std::size_t>(std::ceil(rate * duration_s));
  const std::uint64_t batches_before = engine.stats().batches;

  struct Pending {
    std::size_t slot = 0;
    double late_ms = 0.0;
    std::future<serve::InferenceResult> future;
  };
  std::vector<Pending> pending;
  pending.reserve(n);
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(static_cast<double>(i) / rate));
    wait_until(due);
    const double late_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    const std::size_t slot = i % pool.inputs.size();
    ++out.submitted;
    try {
      Tracer::Span span(tracer, "serve.submit");
      pending.push_back(
          {slot, late_ms,
           engine.submit(i, pool.inputs[slot], pool.features[slot])});
    } catch (const serve::QueueFullError&) {
      ++out.rejected;
    }
  }

  for (std::size_t k = 0; k < pending.size(); ++k) {
    Pending& p = pending[k];
    serve::InferenceResult res;
    try {
      res = p.future.get();
    } catch (const serve::RequestTimeoutError&) {
      ++out.timeouts;
      continue;
    }
    const double latency = p.late_ms + res.latency_ms;
    out.latency_ms.push_back(latency);
    out.engine_ms.push_back(res.latency_ms);
    out.late_ms.push_back(p.late_ms);
    out.batch_rows_sum += static_cast<double>(res.batch_rows);
    if (latency > kFailMs) ++out.late;

    // Bit-exactness gate: every K-th answer against the unbatched path.
    if (k % kCheckEvery == 0) {
      serve::InferenceResult ref;
      {
        Tracer::Span span(tracer, "serve.infer");
        ref = engine.infer(res.id, pool.inputs[p.slot], pool.features[p.slot]);
      }
      if (ref.probs != res.probs || ref.cluster != res.cluster) {
        fail_check("served request " + std::to_string(res.id) +
                   " differs from BatchingEngine::infer on the same input");
      }
    }
  }
  out.batches = engine.stats().batches - batches_before;
  return out;
}

/// Submits `requests` back to back and waits for all of them; returns
/// the completion rate (requests/s). Also warms the engine: every worker
/// builds its replica set before the timed schedule starts.
double burst(serve::BatchingEngine& engine, const RequestPool& pool,
             std::size_t requests) {
  const auto t0 = Clock::now();
  std::vector<std::future<serve::InferenceResult>> futures;
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t slot = i % pool.inputs.size();
    futures.push_back(engine.submit(i, pool.inputs[slot], pool.features[slot]));
  }
  for (auto& f : futures) f.get();
  return static_cast<double>(requests) / seconds_since(t0);
}

/// Rate ladder: a closed burst estimates capacity C; open-loop steps
/// then climb geometrically from 0.8 C and stop after two consecutive
/// misses of the median limit above C (a miss below C is a host stall,
/// not saturation). Returns the highest step that met the limit; if none
/// did, the ladder steps down from 0.8 C until one does.
double ladder(serve::BatchingEngine& engine, const RequestPool& pool,
              Tracer& tracer) {
  const double capacity = burst(engine, pool, kBurstRequests);
  double max_rps = 0.0;
  std::size_t misses = 0;
  for (double rate = 0.8 * capacity; misses < 2 && rate < 4 * capacity;
       rate *= kLadderFactor) {
    if (run_step(engine, pool, rate, kStepS, tracer).meets(kP50LimitMs)) {
      max_rps = rate;
      misses = 0;
    } else if (rate > capacity) {
      ++misses;
    }
  }
  for (int k = 1; k <= 20 && max_rps <= 0.0; ++k) {
    const double rate = 0.8 * capacity / std::pow(kLadderFactor, k);
    if (run_step(engine, pool, rate, kStepS, tracer).meets(kP50LimitMs)) {
      max_rps = rate;
    }
  }
  if (max_rps <= 0.0) fail_check("no ladder rate met the median limit");
  return max_rps;
}

}  // namespace

void serve(const fl::Federation& federation, const TrainRun& run,
           double nominal_rps, double seconds, std::uint64_t seed,
           Tracer& tracer, Report& report) {
  serve::ModelRegistry registry;
  registry.publish(serve::freeze(federation.template_model(), run.result,
                                 run.adapter->outcome()));
  const RequestPool pool =
      make_pool(federation, run.adapter->outcome(), 512, seed);

  serve::EngineConfig cfg;
  cfg.router.mode = serve::RouteMode::kHard;
  cfg.max_batch = kMaxBatch;
  // Take whatever is queued: a timed batch-close wait adds the host's
  // timer wake-up latency to every batch.
  cfg.max_delay_ms = 0.0;
  cfg.workers = kServeWorkers;
  // Bounded admission: past saturation the queue sheds load instead of
  // growing without limit.
  cfg.max_queue = 4096;
  // The generator spins on the first CPU and the workers run on the
  // rest: threads inherit the affinity of the thread that creates them.
  // Otherwise the scheduler may wake a worker on the generator's busy
  // CPU, where it waits behind the spin for a whole time slice.
  ScopedAffinity affinity;
  const std::vector<int> cpus = affinity.cpus();
  const bool split = cpus.size() >= kServeWorkers + 2;
  if (split) affinity.restrict_to({cpus.begin() + 1, cpus.end()});
  serve::BatchingEngine engine(registry, cfg);
  if (split) affinity.restrict_to({cpus.front()});
  (void)burst(engine, pool, 4 * kMaxBatch * kServeWorkers);

  const StepResult nominal = run_step(engine, pool, nominal_rps,
                                      kNominalShare * seconds, tracer);
  report.attempted += nominal.submitted;
  report.failed += nominal.rejected + nominal.timeouts + nominal.late;

  if (tracer.enabled()) {
    serve::Router router(registry.snapshot(), cfg.router);
    std::vector<double> route_us;
    for (const auto& features : pool.features) {
      const auto t0 = Clock::now();
      {
        Tracer::Span span(tracer, "serve.route");
        const serve::RouteDecision d = router.route(features);
        if (d.cluster >= run.clusters) fail_check("router chose no cluster");
      }
      route_us.push_back(1e6 * seconds_since(t0));
    }
    report.set("serve.route_us", median(route_us), "us");
    report.set("serve.engine_latency_ms", median(nominal.engine_ms), "ms");
    report.set("serve.batch_rows_mean",
               nominal.batch_rows_sum /
                   static_cast<double>(nominal.latency_ms.size()),
               "rows");
    report.set("serve.batches", static_cast<double>(nominal.batches), "count");
    report.set("serve.answered_share",
               static_cast<double>(nominal.latency_ms.size()) /
                   static_cast<double>(nominal.submitted),
               "ratio");
    report.set("serve.generator_late_ms", quantile(nominal.late_ms, 0.99),
               "ms");
    report.set("serve.p99_ms", quantile(nominal.latency_ms, 0.99), "ms");
    return;
  }

  report.set("serve_p50_ms", quantile(nominal.latency_ms, 0.5), "ms");

  // Two ladders, averaged: each reports the highest of many noisy steps.
  const double max_rps = 0.5 * (ladder(engine, pool, tracer) +
                                ladder(engine, pool, tracer));
  report.set("serve_max_rps", max_rps, "1/s");
}

}  // namespace perfbench
