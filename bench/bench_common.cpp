#include "bench_common.hpp"

namespace hylo::bench {

Network Workload::make_model() const {
  const bool big = large_scale();
  if (paper_name == "ResNet-50")
    return make_resnet({3, 16, 16}, 10, big ? 3 : 2, big ? 16 : 12, model_seed);
  if (paper_name == "ResNet-32")
    return make_resnet({3, 16, 16}, 10, big ? 5 : 2, 8, model_seed);
  if (paper_name == "U-Net")
    return make_unet({1, 16, 16}, big ? 16 : 8, 2, model_seed);
  if (paper_name == "DenseNet")
    return make_densenet({3, 16, 16}, 10, big ? 12 : 8, big ? 6 : 4,
                         model_seed);
  if (paper_name == "3C1F")
    return make_c3f1({1, 16, 16}, 10, big ? 16 : 8, model_seed);
  HYLO_CHECK(false, "unknown workload " << paper_name);
  return Network{};
}

Workload make_workload(const std::string& name) {
  const bool big = large_scale();
  const index_t n_train = big ? 4096 : 1536;
  const index_t n_test = big ? 1024 : 384;
  Workload w;
  if (name == "resnet50") {
    w.paper_name = "ResNet-50";
    w.proxy_desc = "resnet-14 (w=12) on 10-class noisy textures 3x16x16";
    w.data = make_texture_images(n_train, n_test, 10, 3, 16, 16, 1.2, 101);
    w.classes = 10;
    w.target_metric = 0.85;
  } else if (name == "resnet32") {
    w.paper_name = "ResNet-32";
    w.proxy_desc = "resnet-14 (w=8) on 10-class noisy textures 3x16x16";
    w.data = make_texture_images(n_train, n_test, 10, 3, 16, 16, 1.3, 102);
    w.classes = 10;
    w.target_metric = 0.8;
  } else if (name == "unet") {
    w.paper_name = "U-Net";
    w.proxy_desc = "unet (base=8, depth=2) on blob segmentation 16x16";
    w.data = make_blob_segmentation(big ? 1024 : 512, 128, 16, 16, 0.25, 103);
    w.classes = 0;
    w.target_metric = 0.85;
  } else if (name == "densenet") {
    w.paper_name = "DenseNet";
    w.proxy_desc = "densenet (growth=8, 2x4 layers) on 10-class textures";
    w.data = make_texture_images(n_train, n_test, 10, 3, 16, 16, 0.4, 104);
    w.classes = 10;
    w.target_metric = 0.8;
  } else if (name == "c3f1") {
    w.paper_name = "3C1F";
    w.proxy_desc = "3 conv + 1 fc on 10-class gaussian images 1x16x16";
    w.data = make_gaussian_images(n_train, n_test, 10, 1, 16, 16, 0.9, 105);
    w.classes = 10;
    w.target_metric = 0.9;
  } else {
    HYLO_CHECK(false, "unknown workload " << name);
  }
  return w;
}

ComputeModel bench_compute() {
  // hylo-resnet32-p8's modeled fwd/bwd FLOPs per rank pass over its traced
  // nn.forward_ms + nn.backward_ms (EXPERIMENTS.md): the figures keep the
  // compute/comm balance of the CPU they were first drawn on.
  return {.name = "cpu-calibrated", .flops_per_s = 13e9};
}

OptimConfig method_config(const std::string& optimizer) {
  OptimConfig oc;
  oc.momentum = 0.9;
  oc.weight_decay = 5e-4;
  oc.update_freq = 10;
  oc.stat_decay = 0.95;
  // The KAISA-style trust region: 0.001 (the usual GPU-scale setting) is too
  // tight for these small proxies and strangles every NGD method's steps.
  oc.kl_clip = 0.01;
  oc.rank_ratio = 0.1;
  if (optimizer == "SGD") {
    oc.lr = 0.1;
  } else if (optimizer == "ADAM") {
    oc.lr = 0.002;
    oc.weight_decay = 1e-4;
  } else if (optimizer == "KFAC" || optimizer == "KAISA" ||
             optimizer == "EKFAC") {
    oc.lr = 0.05;
    oc.damping = 0.03;
  } else if (optimizer == "KBFGS-L" || optimizer == "KBFGS") {
    oc.lr = 0.05;
    oc.damping = 0.1;
  } else if (optimizer == "SNGD" || optimizer == "HyLo") {
    oc.lr = 0.1;
    oc.damping = 0.3;
  } else {
    HYLO_CHECK(false, "unknown optimizer " << optimizer);
  }
  return oc;
}

CaptureSet synth_capture(Rng& rng, index_t layers, index_t world, index_t m,
                         index_t d_in, index_t d_out, index_t latent_rank,
                         real_t noise) {
  CaptureSet cap;
  cap.a.resize(static_cast<std::size_t>(layers));
  cap.g.resize(static_cast<std::size_t>(layers));
  for (index_t l = 0; l < layers; ++l) {
    for (index_t r = 0; r < world; ++r) {
      // Low-rank structure plus noise: matches the observed spectra of real
      // per-sample factor matrices (Fig. 10).
      auto lowrank = [&](index_t rows, index_t cols) {
        Matrix base(rows, latent_rank);
        Matrix mix(latent_rank, cols);
        for (index_t i = 0; i < base.size(); ++i) base.data()[i] = rng.normal();
        for (index_t i = 0; i < mix.size(); ++i) mix.data()[i] = rng.normal();
        Matrix out = matmul(base, mix);
        for (index_t i = 0; i < out.size(); ++i)
          out.data()[i] += noise * rng.normal();
        return out;
      };
      cap.a[static_cast<std::size_t>(l)].push_back(lowrank(m, d_in));
      cap.g[static_cast<std::size_t>(l)].push_back(lowrank(m, d_out));
    }
  }
  return cap;
}

}  // namespace hylo::bench
