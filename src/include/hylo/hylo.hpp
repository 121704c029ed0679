#pragma once
/// \file hylo.hpp
/// Umbrella header: the full public API of the HyLo reproduction library.
///
/// Quick tour:
///   - hylo/core/trainer.hpp    — Trainer, TrainConfig, resolve_config(),
///                                make_optimizer()
///   - hylo/common/env.hpp      — the HYLO_* catalogue and strict parsers
///   - hylo/optim/*             — SGD/Adam, KFAC/EKFAC/KBFGS, SNGD, HyLo
///   - hylo/models/zoo.hpp      — model builders (mlp, c3f1, resnet, ...)
///   - hylo/data/datasets.hpp   — synthetic datasets + sharded DataLoader
///   - hylo/nn/*                — static-DAG NN framework with A/G capture
///   - hylo/dist/*              — simulated collectives + α-β cost model
///   - hylo/obs/*               — telemetry: metrics registry, trace spans
///                                (Perfetto export), JSONL run logs
///   - hylo/par/*               — deterministic thread-pool parallelism
///                                (HYLO_NUM_THREADS)
///   - hylo/audit/*             — checked-mode write-set race auditor and
///                                replay determinism harness (HYLO_AUDIT)
///   - hylo/ckpt/*              — crash-safe run snapshots with bitwise
///                                resume (HYLO_CKPT_DIR/HYLO_CKPT_EVERY)
///   - hylo/linalg/*            — cholesky/lu/eigh/pivoted-QR/ID/kernels
///   - hylo/tensor/*            — Matrix, Tensor4, GEMM kernels
///
/// See examples/quickstart.cpp for a five-minute end-to-end walkthrough.

#include "hylo/audit/audit.hpp"
#include "hylo/audit/write_set.hpp"
#include "hylo/ckpt/snapshot.hpp"
#include "hylo/common/csv.hpp"
#include "hylo/common/env.hpp"
#include "hylo/common/rng.hpp"
#include "hylo/common/timer.hpp"
#include "hylo/core/trainer.hpp"
#include "hylo/data/datasets.hpp"
#include "hylo/dist/comm.hpp"
#include "hylo/dist/cost_model.hpp"
#include "hylo/linalg/cholesky.hpp"
#include "hylo/linalg/eigh.hpp"
#include "hylo/linalg/id.hpp"
#include "hylo/linalg/kernels.hpp"
#include "hylo/linalg/lu.hpp"
#include "hylo/linalg/qr.hpp"
#include "hylo/models/zoo.hpp"
#include "hylo/nn/layers.hpp"
#include "hylo/nn/loss.hpp"
#include "hylo/nn/network.hpp"
#include "hylo/obs/obs.hpp"
#include "hylo/optim/hylo_optimizer.hpp"
#include "hylo/optim/kfac.hpp"
#include "hylo/optim/optimizer.hpp"
#include "hylo/optim/sngd.hpp"
#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/ops.hpp"
