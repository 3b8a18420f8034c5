// Set-up, FedClust training, the formation check and newcomer
// admission.
#include "bench.hpp"
#include "cluster/distance.hpp"
#include "fl/virtual_fleet.hpp"
#include "nn/models.hpp"
#include "partition/partition.hpp"
#include "utils/error.hpp"

namespace perfbench {

namespace {

/// The population seed (see FlSpec); 1000 is the first seed of
/// bench/table1_accuracy, whose partition meets the 12-sample floor.
constexpr std::uint64_t kPopulationSeed = 1000;
constexpr double kBeta = 0.1;
constexpr std::size_t kNewcomers = 100;
/// Samples per generated newcomer (eager population).
constexpr std::size_t kNewcomerSamples = 12;

nn::Model make_model(const FlSpec& spec, const nn::ImageSpec& image) {
  if (spec.model == "lenet5") return nn::lenet5(image);
  if (spec.model == "mlp") return nn::mlp(image, /*hidden=*/32);
  throw Error("unknown model '" + spec.model + "'");
}

/// Eager population (the Table-I protocol, as bench/table1_accuracy
/// builds it): one generated pool dealt by Dir(0.1), per-client
/// stratified test splits, plus separately generated newcomers.
Inputs build_eager(const FlSpec& spec, std::uint64_t seed, Tracer& tracer) {
  Inputs out;
  data::Dataset pool;
  nn::ImageSpec image;
  {
    Tracer::Span span(tracer, "data.generate");
    const data::SyntheticGenerator gen(spec.dataset, kPopulationSeed);
    image = gen.image_spec();
    Rng rng = Rng(kPopulationSeed).split(101);
    pool = gen.generate(spec.pool, rng);
    // Each newcomer draws its own label mix from Dir(0.1), the skew a
    // member of the dealt population has.
    const std::size_t classes = image.classes;
    Rng newcomer_rng = Rng(kPopulationSeed).split(201);
    for (std::size_t i = 0; i < kNewcomers; ++i) {
      const std::vector<double> mix = newcomer_rng.dirichlet(kBeta, classes);
      std::vector<std::size_t> counts(classes, 0);
      for (std::size_t j = 0; j < kNewcomerSamples; ++j) {
        const double u = newcomer_rng.uniform();
        double acc = 0.0;
        std::size_t c = 0;
        while (c + 1 < classes && (acc += mix[c]) <= u) ++c;
        ++counts[c];
      }
      out.newcomers.push_back(gen.generate_per_class(counts, newcomer_rng));
    }
  }

  std::vector<fl::ClientData> clients;
  {
    Tracer::Span span(tracer, "partition.split");
    Rng part_rng = Rng(kPopulationSeed).split(102);
    const partition::Partition part = partition::dirichlet_partition(
        pool, spec.clients, kBeta, part_rng, /*min_samples=*/12);
    Rng split_rng = Rng(kPopulationSeed).split(103);
    for (const data::Dataset& ds : partition::materialize(pool, part)) {
      auto [train, test] = ds.stratified_split(0.25, split_rng);
      if (test.empty()) test = train;
      clients.push_back({std::move(train), std::move(test)});
    }
  }

  nn::Model model = make_model(spec, image);
  Rng init_rng = Rng(kPopulationSeed).split(104);
  model.init_params(init_rng);
  fl::FederationConfig cfg = spec.engine;
  cfg.seed = seed;
  out.federation = std::make_unique<fl::Federation>(
      std::move(model), std::move(clients), cfg);
  return out;
}

/// Cross-device population: a virtual fleet of clients + newcomer slots
/// whose shards are all materialised here; the first `clients` slots
/// form the federation, the rest are held out as newcomers. The fleet is
/// part of the fixed population.
Inputs build_virtual(const FlSpec& spec, std::uint64_t seed, Tracer& tracer) {
  fl::VirtualFleetSpec fleet_spec;
  fleet_spec.dataset = spec.dataset;
  fleet_spec.num_clients = spec.clients + kNewcomers;
  fleet_spec.dirichlet_beta = kBeta;
  fleet_spec.samples_per_client = spec.samples_per_client;
  fleet_spec.seed = kPopulationSeed;
  // The fleet deals every client's label histogram on construction; the
  // pixels are generated when the shards are materialised.
  std::unique_ptr<const fl::VirtualFleet> fleet;
  {
    Tracer::Span span(tracer, "partition.split");
    fleet = std::make_unique<const fl::VirtualFleet>(fleet_spec);
  }
  const nn::ImageSpec image = fleet->image_spec();
  std::vector<fl::ClientData> shards;
  {
    Tracer::Span span(tracer, "data.generate");
    shards = fleet->materialize_all();
  }

  Inputs out;
  for (std::size_t i = spec.clients; i < shards.size(); ++i) {
    out.newcomers.push_back(std::move(shards[i].train));
  }
  shards.resize(spec.clients);

  nn::Model model = make_model(spec, image);
  Rng init_rng = Rng(kPopulationSeed).split(104);
  model.init_params(init_rng);
  fl::FederationConfig cfg = spec.engine;
  cfg.seed = seed;
  out.federation = std::make_unique<fl::Federation>(
      std::move(model), std::move(shards), cfg);
  return out;
}

/// One per-cluster FedAvg round through the public Federation calls, in
/// the order algorithms::per_cluster_fedavg_round makes them, each call
/// under its span. Must leave the adapter bit-identical to sync_round.
void traced_round(fl::Federation& federation, core::FedClustAsync& adapter,
                  std::size_t round, Tracer& tracer, TrainRun& out) {
  std::vector<std::size_t> participants;
  {
    Tracer::Span span(tracer, "fl.sample_clients");
    participants = federation.sample_clients(round);
  }
  for (const std::size_t cid : participants) {
    federation.meter_download(cid, federation.model_size());
  }
  std::vector<fl::ClientUpdate> updates;
  {
    Tracer::Span span(tracer, "fl.train_clients");
    updates = federation.train_clients(
        participants, round, [&](std::size_t cid) {
          return adapter.cluster_model(adapter.cluster_of(cid));
        });
  }
  out.updates_solicited += participants.size();
  out.updates_arrived += updates.size();
  std::vector<std::vector<fl::ClientUpdate>> by_cluster(adapter.num_clusters());
  for (const fl::ClientUpdate& u : updates) {
    federation.meter_upload(u.client_id, federation.model_size());
    out.samples_trained += u.num_samples * federation.config().local.epochs;
    by_cluster[adapter.cluster_of(u.client_id)].push_back(u);
  }
  for (std::size_t c = 0; c < by_cluster.size(); ++c) {
    if (by_cluster[c].empty()) continue;
    std::vector<float> merged;
    {
      Tracer::Span span(tracer, "fl.aggregate");
      merged = federation.aggregate(by_cluster[c], adapter.cluster_model(c));
    }
    adapter.set_cluster_model(c, std::move(merged));
  }
  out.last_updates = std::move(updates);
}

}  // namespace

Inputs build_inputs(const FlSpec& spec, std::uint64_t seed, Tracer& tracer) {
  return spec.pool > 0 ? build_eager(spec, seed, tracer)
                       : build_virtual(spec, seed, tracer);
}

TrainRun train(fl::Federation& federation, const FlSpec& spec,
               Tracer& tracer) {
  TrainRun out;
  out.adapter = std::make_unique<core::FedClustAsync>(spec.algo);
  core::FedClustAsync& adapter = *out.adapter;
  out.result.algorithm = adapter.name();

  const auto t0 = std::chrono::steady_clock::now();
  federation.reset_comm();
  std::size_t first = 0;
  {
    Tracer::Span span(tracer, "core.formation");
    first = adapter.begin(federation, out.result);
  }
  out.formation_s = seconds_since(t0);
  FEDCLUST_CHECK(spec.rounds > first, "workload needs rounds after formation");

  for (std::size_t round = first; round < spec.rounds; ++round) {
    const auto tr = std::chrono::steady_clock::now();
    federation.comm().begin_round(round);
    if (tracer.enabled()) {
      Tracer::Span span(tracer, "fl.round");
      traced_round(federation, adapter, round, tracer, out);
    } else {
      adapter.sync_round(federation, round);
    }
    out.round_s.push_back(seconds_since(tr));
  }
  // Final evaluation only (eval_every = rounds), as run_synchronized does.
  fl::AccuracySummary acc;
  if (tracer.enabled()) {
    Tracer::Span span(tracer, "fl.evaluate");
    acc = federation.evaluate_personalized([&](std::size_t cid) {
      return adapter.cluster_model(adapter.cluster_of(cid));
    });
  } else {
    acc = adapter.evaluate(federation);
  }
  out.run_s = seconds_since(t0);

  adapter.finish(out.result);
  out.result.final_accuracy = acc;
  out.final_acc = 100.0 * acc.mean;
  out.upload_mb = 1e-6 * static_cast<double>(federation.comm().total_upload());
  out.fingerprint = adapter.fingerprint();
  out.clusters = adapter.num_clusters();

  // Formation solicitations and arrivals (retry waves included).
  const core::ClusteringOutcome& outcome = adapter.outcome();
  out.updates_solicited += federation.num_clients();
  for (const auto& wave : outcome.resolicited) {
    out.updates_solicited += wave.size();
  }
  out.updates_arrived += outcome.reporters.size();
  const std::size_t warmup_epochs = spec.algo.warmup_epochs > 0
                                        ? spec.algo.warmup_epochs
                                        : federation.config().local.epochs;
  for (const std::size_t c : outcome.reporters) {
    out.samples_trained += federation.client_train_size(c) * warmup_epochs;
  }
  return out;
}

void check_formation(const core::FedClustAsync& adapter, const FlSpec& spec,
                     Tracer& tracer) {
  const core::ClusteringOutcome& outcome = adapter.outcome();
  if (outcome.fallback_global) {
    fail_check("formation fell back to one global cluster");
  }
  std::vector<std::vector<float>> partials;
  partials.reserve(outcome.reporters.size());
  for (const std::size_t c : outcome.reporters) {
    partials.push_back(outcome.partial_weights.at(c));
  }
  Matrix proximity;
  {
    Tracer::Span span(tracer, "cluster.proximity");
    proximity = cluster::pairwise_euclidean(partials);
  }
  cluster::Dendrogram dendrogram;
  {
    Tracer::Span span(tracer, "cluster.agglomerative");
    dendrogram = cluster::agglomerative_cluster(proximity, spec.algo.linkage);
  }
  const std::vector<std::size_t> labels =
      dendrogram.cut_threshold(outcome.threshold);
  for (std::size_t i = 0; i < outcome.reporters.size(); ++i) {
    if (labels[i] != outcome.labels.at(outcome.reporters[i])) {
      fail_check("re-clustering the formation uploads at threshold " +
                 std::to_string(outcome.threshold) +
                 " disagrees with the adapter's label of client " +
                 std::to_string(outcome.reporters[i]));
    }
  }
}

NewcomerPass admit_newcomers(const fl::Federation& federation,
                             const FlSpec& spec,
                             const core::ClusteringOutcome& outcome,
                             const std::vector<data::Dataset>& newcomers,
                             std::uint64_t seed, Tracer& tracer) {
  const core::FedClust algo(spec.algo);
  const std::size_t clusters = cluster::num_clusters(outcome.labels);
  NewcomerPass out;
  for (std::size_t i = 0; i < newcomers.size(); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t assigned = 0;
    {
      Tracer::Span span(tracer, "core.newcomer");
      assigned = algo.assign_newcomer(
          federation.template_model(), newcomers[i],
          federation.config().local, Rng(seed).split(9000 + i), outcome);
    }
    out.latency_ms.push_back(1e3 * seconds_since(t0));
    if (assigned >= clusters) {
      fail_check("newcomer " + std::to_string(i) + " assigned to cluster " +
                 std::to_string(assigned) + " of " + std::to_string(clusters));
    }
    out.cluster.push_back(assigned);
  }
  return out;
}

}  // namespace perfbench
