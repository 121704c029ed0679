// One KAISA curvature refresh of the kaisa-resnet50-p4 proxy (the width-12
// ResNet: A factors 28, 109x5, 217x4, 13, 433x3, 25 and 49; G factors 12x5,
// 24x5, 48x5 and 10; 4 ranks x 16 samples), timed phase by phase:
//
//   factor        running_factor for every A and G factor, blended into the
//                 previous refresh's factors (stat_decay 0.95)
//   cholesky      damped_cholesky with KFAC's π-corrected damping
//   inverse       cholesky_inverse of each factor (triangular inverse + Gram)
//   gate          the commit gate's scans of the candidate's four matrices
//                 (the served state's norms are kept from its own gate)
//   precondition  G⁻¹·∇W·A⁻¹ per layer
//
// The first four phases also run the computation they replaced, on the same
// build (per-rank gram_tn, += and the blend; a damped work copy; a
// block-copying triangular inverse; count_nonfinite + frobenius_norm over
// candidate and served matrices), and are checked bitwise against it (the
// gate by its decision). The two alternate which runs first, `reps` times
// each after a warm-up; the per-phase medians print as one JSON line with
// the tier, thread count and hardware concurrency (BENCH_refresh.json).
//
// Run: ./build/bench/bench_kfac_refresh [reps]
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "hylo/obs/health.hpp"
#include "hylo/tensor/gemm_packed.hpp"
#include "hylo/tensor/kernel_dispatch.hpp"

using namespace hylo;

namespace {

constexpr index_t kRanks = 4;
constexpr index_t kRows = 16;
constexpr real_t kDecay = 0.95;
constexpr real_t kDamping = 0.03;

bool same_bits(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     sizeof(real_t) * static_cast<std::size_t>(x.size())) == 0;
}

// ---- The replaced computations --------------------------------------------

Matrix reference_factor(const std::vector<Matrix>& ranks, const Matrix& old) {
  Matrix fresh = gram_tn(ranks[0]);
  index_t m = ranks[0].rows();
  for (std::size_t r = 1; r < ranks.size(); ++r) {
    fresh += gram_tn(ranks[r]);
    m += ranks[r].rows();
  }
  fresh *= 1.0 / static_cast<real_t>(m);
  for (index_t i = 0; i < fresh.size(); ++i)
    fresh[i] = std::fma(1.0 - kDecay, fresh[i], old[i] * kDecay);
  return fresh;
}

Matrix reference_damped_cholesky(const Matrix& c, real_t damping) {
  Matrix work = c;
  add_diagonal(work, damping);
  Matrix l;
  HYLO_CHECK(try_cholesky(work, l), "reference factor not positive definite");
  return l;
}

void reference_invert_lower(Matrix& x, index_t r0, index_t r1) {
  const index_t n = r1 - r0;
  if (n <= kCholeskyPanel) {
    for (index_t j = r0; j < r1; ++j) {
      x(j, j) = 1.0 / x(j, j);
      for (index_t i = j + 1; i < r1; ++i) {
        const real_t* xi = x.row_ptr(i);
        real_t acc = 0.0;
        for (index_t k = j; k < i; ++k) acc += xi[k] * x(k, j);
        x(i, j) = -acc / xi[i];
      }
    }
    return;
  }
  const index_t mid = r0 + n / 2;
  reference_invert_lower(x, r0, mid);
  reference_invert_lower(x, mid, r1);
  auto block = [&x](index_t i0, index_t i1, index_t j0, index_t j1) {
    Matrix b(i1 - i0, j1 - j0);
    for (index_t i = i0; i < i1; ++i)
      std::copy(x.row_ptr(i) + j0, x.row_ptr(i) + j1, b.row_ptr(i - i0));
    return b;
  };
  const Matrix t = matmul(block(mid, r1, r0, mid), block(r0, mid, r0, mid));
  Matrix x21;
  gemm(block(mid, r1, mid, r1), t, x21, -1.0);
  for (index_t i = mid; i < r1; ++i)
    std::copy(x21.row_ptr(i - mid), x21.row_ptr(i - mid) + (mid - r0),
              x.row_ptr(i) + r0);
}

Matrix reference_inverse(const Matrix& l) {
  Matrix x = l;
  reference_invert_lower(x, 0, x.rows());
  return gram_tn_tril(x);
}

// The gate's decision over one layer's four matrices: +1 commit, 0 reject.
int reference_gate(const std::vector<const Matrix*>& next,
                   const std::vector<const Matrix*>& prev) {
  for (std::size_t i = 0; i < next.size(); ++i) {
    if (obs::count_nonfinite(*next[i]) > 0) return 0;
    const real_t norm = frobenius_norm(*next[i]);
    if (norm > 1e30) return 0;
    const real_t before = frobenius_norm(*prev[i]);
    if (before > 0.0 && norm > 1e6 * before) return 0;
  }
  return 1;
}

int gate(const std::vector<const Matrix*>& next,
         const std::vector<real_t>& prev_norms) {
  for (std::size_t i = 0; i < next.size(); ++i) {
    const kern::NormScan s = kern::norm_scan(next[i]->data(), next[i]->size());
    if (!s.finite) return 0;
    const real_t norm = std::sqrt(s.sumsq);
    if (norm > 1e30) return 0;
    if (prev_norms[i] > 0.0 && norm > 1e6 * prev_norms[i]) return 0;
  }
  return 1;
}

real_t pi_correction(const Matrix& a, const Matrix& g) {
  const real_t ta = trace(a) / static_cast<real_t>(a.rows());
  const real_t tg = trace(g) / static_cast<real_t>(g.rows());
  if (!(ta > 0.0) || !(tg > 0.0)) return 1.0;
  return std::sqrt(ta / tg);
}

real_t median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct RefreshLayer {
  std::vector<Matrix> a, g;  // per-rank captures
  Matrix a_old, g_old;       // the served factors blended into
  Matrix a_factor, g_factor, la, lg, a_inv, g_inv, gw, pre;
  real_t damp_a = 0.0, damp_g = 0.0;
  std::vector<real_t> served_norms;  // what the served state's gate kept
};

}  // namespace

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 15;
  Network net = make_resnet({3, 16, 16}, 10, 2, 12, 7);
  Rng rng(29);
  std::vector<RefreshLayer> layers;
  for (ParamBlock* pb : net.param_blocks()) {
    RefreshLayer l;
    const index_t da = pb->w.cols(), dg = pb->w.rows();
    for (index_t r = 0; r < kRanks; ++r) {
      Matrix a(kRows, da), g(kRows, dg);
      for (index_t i = 0; i < a.size(); ++i) a[i] = rng.normal();
      for (index_t i = 0; i < g.size(); ++i) g[i] = 0.1 * rng.normal();
      l.a.push_back(std::move(a));
      l.g.push_back(std::move(g));
    }
    l.a_old = running_factor(l.a, nullptr, kDecay);
    l.g_old = running_factor(l.g, nullptr, kDecay);
    l.gw = Matrix(dg, da);
    for (index_t i = 0; i < l.gw.size(); ++i) l.gw[i] = rng.normal();
    layers.push_back(std::move(l));
  }

  struct Phase {
    std::string name;
    std::function<void()> run, reference;  // reference null: none replaced
    std::function<bool()> same;
    std::vector<double> ms, ref_ms;
    bool bitwise = true;
  };
  // Each phase leaves its outputs in the layers for the next; the reference
  // writes its own copies, compared after every rep.
  std::vector<Matrix> ref_out(layers.size() * 2);
  int decision = -1, ref_decision = -1;
  std::vector<Phase> phases;
  phases.push_back(
      {"factor",
       [&] {
         for (RefreshLayer& l : layers) {
           l.a_factor = running_factor(l.a, &l.a_old, kDecay);
           l.g_factor = running_factor(l.g, &l.g_old, kDecay);
         }
       },
       [&] {
         for (std::size_t i = 0; i < layers.size(); ++i) {
           ref_out[2 * i] = reference_factor(layers[i].a, layers[i].a_old);
           ref_out[2 * i + 1] = reference_factor(layers[i].g, layers[i].g_old);
         }
       },
       [&] {
         bool ok = true;
         for (std::size_t i = 0; i < layers.size(); ++i)
           ok = ok && same_bits(layers[i].a_factor, ref_out[2 * i]) &&
                same_bits(layers[i].g_factor, ref_out[2 * i + 1]);
         return ok;
       },
       {},
       {}});
  phases.push_back(
      {"cholesky",
       [&] {
         for (RefreshLayer& l : layers) {
           const real_t pi = pi_correction(l.a_factor, l.g_factor);
           l.damp_a = pi * std::sqrt(kDamping);
           l.damp_g = std::sqrt(kDamping) / pi;
           l.la = damped_cholesky(l.a_factor, l.damp_a);
           l.lg = damped_cholesky(l.g_factor, l.damp_g);
         }
       },
       [&] {
         for (std::size_t i = 0; i < layers.size(); ++i) {
           const RefreshLayer& l = layers[i];
           ref_out[2 * i] = reference_damped_cholesky(l.a_factor, l.damp_a);
           ref_out[2 * i + 1] = reference_damped_cholesky(l.g_factor, l.damp_g);
         }
       },
       [&] {
         bool ok = true;
         for (std::size_t i = 0; i < layers.size(); ++i)
           ok = ok && same_bits(layers[i].la, ref_out[2 * i]) &&
                same_bits(layers[i].lg, ref_out[2 * i + 1]);
         return ok;
       },
       {},
       {}});
  phases.push_back(
      {"inverse",
       [&] {
         for (RefreshLayer& l : layers) {
           l.a_inv = cholesky_inverse(l.la);
           l.g_inv = cholesky_inverse(l.lg);
         }
       },
       [&] {
         for (std::size_t i = 0; i < layers.size(); ++i) {
           ref_out[2 * i] = reference_inverse(layers[i].la);
           ref_out[2 * i + 1] = reference_inverse(layers[i].lg);
         }
       },
       [&] {
         bool ok = true;
         for (std::size_t i = 0; i < layers.size(); ++i)
           ok = ok && same_bits(layers[i].a_inv, ref_out[2 * i]) &&
                same_bits(layers[i].g_inv, ref_out[2 * i + 1]);
         return ok;
       },
       {},
       {}});
  // The served side is the previous refresh's state: its factors, whose
  // norms the gate kept; the reference scans it again.
  phases.push_back(
      {"gate",
       [&] {
         decision = 1;
         for (RefreshLayer& l : layers)
           decision &= gate({&l.a_factor, &l.g_factor, &l.a_inv, &l.g_inv},
                            l.served_norms);
       },
       [&] {
         ref_decision = 1;
         for (RefreshLayer& l : layers)
           ref_decision &= reference_gate(
               {&l.a_factor, &l.g_factor, &l.a_inv, &l.g_inv},
               {&l.a_old, &l.g_old, &l.a_inv, &l.g_inv});
       },
       [&] { return decision == 1 && decision == ref_decision; },
       {},
       {}});
  phases.push_back({"precondition",
                    [&] {
                      for (RefreshLayer& l : layers)
                        l.pre = matmul(l.g_inv, matmul(l.gw, l.a_inv));
                    },
                    {},
                    {},
                    {},
                    {}});
  for (RefreshLayer& l : layers)
    for (const Matrix* m : {&l.a_old, &l.g_old, &l.a_old, &l.g_old})
      l.served_norms.push_back(frobenius_norm(*m));

  bool all_same = true;
  for (int rep = 0; rep <= reps; ++rep)
    for (Phase& p : phases) {
      // Alternate which side runs first; rep 0 warms up and is dropped.
      for (int side = 0; side < 2; ++side) {
        const bool mine = (side == 0) == (rep % 2 == 0);
        if (!mine && !p.reference) continue;
        WallTimer t;
        (mine ? p.run : p.reference)();
        const double ms = t.seconds() * 1e3;
        if (rep > 0) (mine ? p.ms : p.ref_ms).push_back(ms);
      }
      if (p.same && !p.same()) {
        p.bitwise = all_same = false;
        std::cerr << "phase " << p.name << ": bits differ from the reference\n";
      }
    }

  obs::Json doc = obs::Json::object();
  doc.set("bench", "kfac_refresh");
  doc.set("workload", "kaisa-resnet50-p4 proxy: width-12 ResNet, 16 layers, "
                      "4 ranks x 16 samples, stat_decay 0.95, damping 0.03");
  doc.set("tier", kern::tier_name(kern::active()));
  doc.set("threads", static_cast<std::int64_t>(par::num_threads()));
  doc.set("hardware_concurrency",
          static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  doc.set("reps", static_cast<std::int64_t>(reps));
  obs::Json rows = obs::Json::array();
  double total = 0.0, ref_total = 0.0;
  for (const Phase& p : phases) {
    obs::Json row = obs::Json::object();
    row.set("phase", p.name);
    row.set("ms", median(p.ms));
    total += median(p.ms);
    if (p.reference) {
      row.set("replaced_ms", median(p.ref_ms));
      row.set("bitwise_equal", p.bitwise);
    }
    ref_total += p.reference ? median(p.ref_ms) : median(p.ms);
    rows.push(std::move(row));
  }
  doc.set("phases", std::move(rows));
  doc.set("total_ms", total);
  doc.set("replaced_total_ms", ref_total);  // precondition: the same code
  std::cout << doc.dump() << "\n";
  return all_same ? 0 : 1;
}
