// Fig. 10 reproduction: distribution of the kernel matrix's numerical rank
// (the number of eigenvalues covering 90% of the eigenvalue sum) across the
// layers of ResNet-50 and ResNet-32 proxies, for global batch sizes from
// 128 to 1024 (the paper sweeps 512-4096 on GPUs). The paper's claim: the
// kernel stays low-rank at every batch size — the median rank is a small,
// shrinking *fraction* of the global batch (20% -> 8.5% on ResNet-50).
#include <iostream>

#include "bench_common.hpp"
#include "hylo/linalg/eigh.hpp"
#include "hylo/linalg/kernels.hpp"
#include "hylo/nn/loss.hpp"

using namespace hylo;
using namespace hylo::bench;

namespace {

// Per-layer numerical ranks of the kernel matrices captured from one batch
// of a briefly-trained model (ranks of an untrained net are unrepresentative).
std::vector<real_t> layer_ranks(const Workload& w, index_t global_batch) {
  Network net = w.make_model();
  // Brief warmup so the gradients carry signal.
  {
    OptimConfig oc = method_config("SGD");
    Sgd opt(oc);
    TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = 32;
    tc.max_iters_per_epoch = 8;
    apply_env_telemetry(tc, "fig10/" + w.paper_name + "/warmup");
    Trainer trainer(net, opt, w.data, tc);
    trainer.run();
  }

  // One captured pass over a global batch.
  DataLoader loader(w.data.train, global_batch, /*seed=*/5);
  Batch batch;
  HYLO_CHECK(loader.next(batch), "dataset smaller than requested batch");
  const PassContext ctx{.training = true, .capture = true};
  net.zero_grad();
  const Tensor4& out = net.forward(batch.images, ctx);
  LossResult lr = w.classes > 0
                      ? SoftmaxCrossEntropy().compute(out, batch.labels)
                      : DiceBceLoss().compute(out, batch.masks);
  net.backward(lr.grad, ctx);

  std::vector<real_t> ranks;
  const auto blocks = net.param_blocks();
  // Subsample every other layer at the default scale (distribution shape is
  // preserved; the full sweep is available with HYLO_BENCH_SCALE=large).
  const std::size_t stride = large_scale() ? 1 : 2;
  for (std::size_t l = 0; l < blocks.size(); l += stride) {
    const Matrix k =
        kernel_matrix(blocks[l]->a_samples, blocks[l]->g_samples);
    const auto eigs = eigvalsh(k);
    ranks.push_back(static_cast<real_t>(numerical_rank(eigs, 0.9)));
  }
  return ranks;
}

}  // namespace

int main() {
  const std::vector<index_t> batches =
      large_scale() ? std::vector<index_t>{256, 512, 1024}
                    : std::vector<index_t>{96, 192, 384};
  for (const std::string wname : {"resnet50", "resnet32"}) {
    const Workload w = make_workload(wname);
    std::cout << "\nFig. 10 — kernel-matrix numerical rank (90% eigenvalue "
                 "coverage) per layer, " << w.paper_name << "\n\n";
    CsvWriter table({"global_batch", "min", "p25", "median", "p75", "max",
                     "median/batch_%"});
    for (const index_t b : batches) {
      const auto ranks = layer_ranks(w, b);
      table.add(b, percentile(ranks, 0), percentile(ranks, 25),
                percentile(ranks, 50), percentile(ranks, 75),
                percentile(ranks, 100),
                100.0 * percentile(ranks, 50) / static_cast<real_t>(b));
    }
    table.print_table();
    table.write_file("fig10_" + wname + "_rank.csv");
  }
  std::cout << "\nPaper's claims: the kernel matrix is low-rank at every "
               "global batch size, and the median rank grows sublinearly "
               "with the batch (ResNet-50: 20%, 16%, 12%, 8.5% of batch at "
               "512..4096).\n";
  return 0;
}
