// Layer probes: each times one layer's public functions on a fixed
// shape, under its own span, and reports the median call.
//
// nn and tensor probes run LeNet-5 at the Table-I batch shape (32 CIFAR
// images, 3x32x32) on every workload, so they move with nn/tensor
// changes only. The codec, network and screening probes run on the
// workload's own model, cohort and last-round updates.
#include "bench.hpp"
#include "compress/codec.hpp"
#include "net/simulator.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "robust/validate.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBatch = 32;
constexpr std::size_t kReps = 25;

/// Times `fn` kReps times under span `name`; returns the median in ms.
template <typename Fn>
double time_ms(Tracer& tracer, const char* name, Fn&& fn) {
  std::vector<double> ms;
  for (std::size_t r = 0; r < kReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      Tracer::Span span(tracer, name);
      fn();
    }
    ms.push_back(1e3 * seconds_since(t0));
  }
  return median(ms);
}

void probe_nn(std::uint64_t seed, Tracer& tracer, Report& report) {
  const nn::ImageSpec image{3, 32, 32, 10};
  nn::Model model = nn::lenet5(image);
  Rng rng = Rng(seed).split(401);
  model.init_params(rng);
  const Tensor input = Tensor::randn({kBatch, 3, 32, 32}, rng);

  const std::size_t layers = model.num_layers();
  std::vector<std::vector<double>> fwd(layers), bwd(layers);
  std::vector<double> sgd_ms;
  nn::Sgd sgd(model, nn::SgdConfig{.lr = 0.03});
  for (std::size_t r = 0; r < kReps; ++r) {
    std::vector<Tensor> acts{input};
    for (std::size_t i = 0; i < layers; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      {
        Tracer::Span span(tracer, "nn.layer.forward");
        acts.push_back(model.layer(i).forward(acts.back(), /*train=*/true));
      }
      fwd[i].push_back(1e3 * seconds_since(t0));
    }
    model.zero_grad();
    Tensor grad = Tensor::full(acts.back().shape(),
                               1.0f / static_cast<float>(kBatch));
    for (std::size_t i = layers; i-- > 0;) {
      const auto t0 = std::chrono::steady_clock::now();
      {
        Tracer::Span span(tracer, "nn.layer.backward");
        grad = model.layer(i).backward(grad);
      }
      bwd[i].push_back(1e3 * seconds_since(t0));
    }
    const auto t0 = std::chrono::steady_clock::now();
    {
      Tracer::Span span(tracer, "nn.sgd_step");
      sgd.step();
    }
    sgd_ms.push_back(1e3 * seconds_since(t0));
  }
  for (std::size_t i = 0; i < layers; ++i) {
    const std::string prefix =
        "nn." + std::to_string(i) + "_" + model.layer(i).type();
    report.set(prefix + ".fwd_ms", median(fwd[i]), "ms");
    report.set(prefix + ".bwd_ms", median(bwd[i]), "ms");
  }
  report.set("nn.sgd_step_ms", median(sgd_ms), "ms");

  for (const std::size_t b : {std::size_t{1}, std::size_t{8}, kBatch}) {
    const Tensor x = Tensor::randn({b, 3, 32, 32}, rng);
    const double ms = time_ms(tracer, "nn.infer",
                              [&] { (void)model.forward(x, /*train=*/false); });
    report.set("nn.infer_ms.b" + std::to_string(b), ms, "ms");
  }
}

/// im2col/col2im and the three GEMM variants the im2col convolution
/// runs, at one LeNet conv shape. Work is reported as computed FLOPs and
/// compulsory bytes (inputs read once, output written once).
void probe_conv_shape(const std::string& tag, std::size_t cin,
                      std::size_t cout, std::size_t hw, std::uint64_t seed,
                      Tracer& tracer, Report& report) {
  const ops::Conv2dSpec spec{.in_channels = cin, .out_channels = cout,
                             .kernel = 5};
  const std::size_t ho = spec.out_size(hw);
  const std::size_t pixels = kBatch * ho * ho;
  const std::size_t ckk = cin * 25;
  Rng rng = Rng(seed).split(402);
  const Tensor input = Tensor::randn({kBatch, cin, hw, hw}, rng);
  const Tensor weight = Tensor::randn({cout, ckk}, rng);
  const Tensor grad_pix = Tensor::randn({pixels, cout}, rng);
  Tensor columns;
  Tensor grad_input({kBatch, cin, hw, hw});
  Tensor out;

  const double image_mb = 4e-6 * static_cast<double>(input.numel());
  const double columns_mb = 4e-6 * static_cast<double>(pixels * ckk);
  const std::string p = "tensor." + tag + ".";
  report.set(p + "im2col_ms",
             time_ms(tracer, "tensor.im2col",
                     [&] { ops::im2col(input, spec, columns); }),
             "ms");
  report.set(p + "im2col_mb", image_mb + columns_mb, "MB");
  report.set(p + "col2im_ms",
             time_ms(tracer, "tensor.col2im",
                     [&] { ops::col2im(columns, spec, grad_input); }),
             "ms");
  report.set(p + "col2im_mb", image_mb + columns_mb, "MB");

  // Every variant is 2 * pixels * cout * ckk FLOPs over the same three
  // operands: columns (pixels x ckk), weight (cout x ckk), pix (pixels x
  // cout).
  const double mflop = 2e-6 * static_cast<double>(pixels * cout * ckk);
  const double gemm_mb =
      columns_mb + 4e-6 * static_cast<double>(cout * ckk + pixels * cout);
  report.set(p + "matmul_nt_ms",
             time_ms(tracer, "tensor.matmul_nt",
                     [&] { ops::matmul_nt(columns, weight, out); }),
             "ms");
  report.set(p + "matmul_nn_ms",
             time_ms(tracer, "tensor.matmul_nn",
                     [&] { ops::matmul(grad_pix, weight, out); }),
             "ms");
  report.set(p + "matmul_tn_ms",
             time_ms(tracer, "tensor.matmul_tn",
                     [&] { ops::matmul_tn(grad_pix, columns, out); }),
             "ms");
  report.set(p + "matmul_mflop", mflop, "MFLOP");
  report.set(p + "matmul_mb", gemm_mb, "MB");
}

std::vector<std::size_t> model_layout(const nn::Model& model) {
  std::vector<std::size_t> layout;
  for (const nn::ParamSlice& s : model.slices()) layout.push_back(s.size);
  return layout;
}

void probe_compress(const fl::Federation& federation, const TrainRun& run,
                    Tracer& tracer, Report& report) {
  const auto codec = compress::make_codec(compress::CodecKind::kInt8);
  const std::vector<std::size_t> layout =
      model_layout(federation.template_model());
  const std::vector<float> reference =
      federation.template_model().flat_weights();
  const std::vector<float>& update = run.last_updates.front().weights;
  std::vector<std::uint8_t> frame;
  report.set("compress.encode_ms",
             time_ms(tracer, "compress.encode",
                     [&] { frame = codec->encode(update, reference, layout); }),
             "ms");
  std::vector<float> decoded(update.size());
  report.set("compress.decode_ms",
             time_ms(tracer, "compress.decode",
                     [&] { codec->decode(frame, decoded, reference, layout); }),
             "ms");
  report.set("compress.ratio",
             static_cast<double>(4 * update.size()) /
                 static_cast<double>(frame.size()),
             "x");
}

void probe_net(const fl::Federation& federation, const TrainRun& run,
               std::uint64_t seed, Tracer& tracer, Report& report) {
  net::NetworkConfig cfg = federation.config().network;
  if (!cfg.enabled) {
    cfg.enabled = true;
    cfg.profile = net::Profile::kCellular;
  }
  net::NetworkSimulator sim(cfg, federation.num_clients(), seed);
  std::vector<net::ClientOp> ops;
  for (const fl::ClientUpdate& u : run.last_updates) {
    ops.push_back({.client = u.client_id,
                   .download_floats = federation.model_size(),
                   .upload_floats = federation.model_size(),
                   .num_samples = u.num_samples,
                   .epochs = federation.config().local.epochs});
  }
  std::size_t round = 0;
  std::vector<double> virtual_s;
  report.set("net.sim_round_ms", time_ms(tracer, "net.run_round", [&] {
               const net::RoundReport r = sim.run_round(++round, ops);
               virtual_s.push_back(r.close - r.start);
             }),
             "ms");
  report.set("net.virtual_s", median(virtual_s), "s");
}

void probe_robust(const fl::Federation& federation, const TrainRun& run,
                  Tracer& tracer, Report& report) {
  const std::vector<float> start = federation.template_model().flat_weights();
  std::vector<std::span<const float>> updates, starts;
  std::vector<std::size_t> clients;
  for (const fl::ClientUpdate& u : run.last_updates) {
    updates.emplace_back(u.weights);
    starts.emplace_back(start);
    clients.push_back(u.client_id);
  }
  robust::ValidationPolicy policy;
  policy.enabled = true;
  report.set("robust.screen_ms", time_ms(tracer, "robust.screen", [&] {
               (void)robust::screen_updates(updates, starts, clients,
                                            federation.model_size(), policy);
             }),
             "ms");
  // Screening rejections are dropped before they count as arrived.
  const auto rejected =
      static_cast<double>(federation.quarantine().total_strikes());
  const auto arrived = static_cast<double>(run.updates_arrived);
  report.set("robust.accepted_share", arrived / (arrived + rejected),
             "ratio");
}

}  // namespace

void probe_layers(const fl::Federation& federation, const TrainRun& run,
                  std::uint64_t seed, Tracer& tracer, Report& report) {
  probe_nn(seed, tracer, report);
  probe_conv_shape("conv1", 3, 6, 32, seed, tracer, report);
  probe_conv_shape("conv2", 6, 16, 14, seed, tracer, report);
  FEDCLUST_CHECK(!run.last_updates.empty(), "traced run kept no updates");
  probe_compress(federation, run, tracer, report);
  probe_net(federation, run, seed, tracer, report);
  probe_robust(federation, run, tracer, report);
}

}  // namespace perfbench
