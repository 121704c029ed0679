// Micro-benchmarks (google-benchmark) of the dense kernels underlying the
// Table I complexity rows: GEMM, Gram products, Cholesky and the damped SPD
// inverse, LU, symmetric eigendecomposition, column-pivoted QR,
// interpolative decomposition, and the kernel-matrix + SMW application path.
#include <benchmark/benchmark.h>

#include "hylo/hylo.hpp"

namespace hylo {
namespace {

Matrix random_matrix(Rng& rng, index_t r, index_t c) {
  Matrix m(r, c);
  for (index_t i = 0; i < m.size(); ++i) m[i] = rng.normal();
  return m;
}

void BM_Gemm(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(1);
  const Matrix a = random_matrix(rng, n, n);
  const Matrix b = random_matrix(rng, n, n);
  Matrix c;
  for (auto _ : state) {
    gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Complexity(benchmark::oNCubed);

void BM_GramNt(benchmark::State& state) {
  const index_t m = state.range(0);
  Rng rng(2);
  const Matrix a = random_matrix(rng, m, 128);
  for (auto _ : state) {
    Matrix g = gram_nt(a);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetComplexityN(m);
}
BENCHMARK(BM_GramNt)->Arg(64)->Arg(128)->Arg(256)->Complexity();

void BM_GramTn(benchmark::State& state) {
  // A Kronecker-factor Gram: 16 captured rows of an n-wide layer input, the
  // shape KAISA's refresh forms per rank (n = 109/217/433 are the ResNet-50
  // proxy's 3x3-conv A-factor sizes).
  const index_t n = state.range(0);
  Rng rng(11);
  const Matrix a = random_matrix(rng, 16, n);
  for (auto _ : state) {
    Matrix g = gram_tn(a);
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_GramTn)
    ->Arg(109)
    ->Arg(217)
    ->Arg(433)
    ->Unit(benchmark::kMillisecond);

void BM_Cholesky(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(3);
  Matrix spd = gram_nt(random_matrix(rng, n, n));
  add_diagonal(spd, static_cast<real_t>(n));
  for (auto _ : state) {
    Matrix l = cholesky(spd);
    benchmark::DoNotOptimize(l.data());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Cholesky)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(433)
    ->Complexity(benchmark::oNCubed);

void BM_SpdInverse(benchmark::State& state) {
  // KFAC's per-refresh inverse on a factor-like input: the Gram of 64
  // samples over 64, plus damping, at KAISA's A-factor sizes.
  const index_t n = state.range(0);
  Rng rng(12);
  Matrix c = gram_tn(random_matrix(rng, 64, n));
  c *= 1.0 / 64.0;
  for (auto _ : state) {
    Matrix inv = damped_spd_inverse(c, 1e-3);
    benchmark::DoNotOptimize(inv.data());
  }
}
BENCHMARK(BM_SpdInverse)
    ->Arg(28)
    ->Arg(109)
    ->Arg(217)
    ->Arg(433)
    ->Unit(benchmark::kMillisecond);

void BM_LuInverse(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(4);
  const Matrix a = random_matrix(rng, n, n);
  for (auto _ : state) {
    Matrix inv = lu_inverse(a);
    benchmark::DoNotOptimize(inv.data());
  }
}
BENCHMARK(BM_LuInverse)->Arg(64)->Arg(128)->Arg(256);

void BM_Eigh(benchmark::State& state) {
  // A Kronecker-factor-like input: the PSD Gram of n/2+1 samples. The sizes
  // are the ResNet-32 proxy's EKFAC factors (8·9+1, 16·9+1, 32·9+1).
  const index_t n = state.range(0);
  Rng rng(5);
  Matrix sym = gram_nt(random_matrix(rng, n, n / 2 + 1));
  for (auto _ : state) {
    auto res = eigh(sym);
    benchmark::DoNotOptimize(res.eigenvalues.data());
    benchmark::DoNotOptimize(res.eigenvectors.data());
  }
}
BENCHMARK(BM_Eigh)->Arg(73)->Arg(145)->Arg(289)->Unit(benchmark::kMillisecond);

void BM_PivotedQr(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(6);
  const Matrix a = random_matrix(rng, n, n);
  for (auto _ : state) {
    PivotedQr f = pivoted_qr(a);
    benchmark::DoNotOptimize(f.r.data());
  }
}
BENCHMARK(BM_PivotedQr)->Arg(64)->Arg(128)->Arg(256);

void BM_RowId(benchmark::State& state) {
  const index_t m = state.range(0);
  Rng rng(7);
  // KID's call shape: symmetric m x m Gram, rank = m/10.
  const Matrix a = random_matrix(rng, m, 64);
  const Matrix g = random_matrix(rng, m, 64);
  const Matrix q = kernel_matrix(a, g);
  const index_t r = std::max<index_t>(2, m / 10);
  for (auto _ : state) {
    RowId id = row_interpolative_decomposition(q, r);
    benchmark::DoNotOptimize(id.projection.data());
  }
}
BENCHMARK(BM_RowId)->Arg(64)->Arg(128)->Arg(256);

void BM_KernelMatrix(benchmark::State& state) {
  const index_t m = state.range(0);
  Rng rng(8);
  const Matrix a = random_matrix(rng, m, 256);
  const Matrix g = random_matrix(rng, m, 128);
  for (auto _ : state) {
    Matrix k = kernel_matrix(a, g);
    benchmark::DoNotOptimize(k.data());
  }
}
BENCHMARK(BM_KernelMatrix)->Arg(64)->Arg(128)->Arg(256);

void BM_SmwApply(benchmark::State& state) {
  // The per-step preconditioning cost of SNGD/HyLo: U g, solve, Uᵀ y.
  const index_t r = state.range(0);
  Rng rng(9);
  const Matrix a = random_matrix(rng, r, 256);
  const Matrix g = random_matrix(rng, r, 128);
  Matrix k = kernel_matrix(a, g);
  add_diagonal(k, 1.0);
  const Matrix chol = cholesky(k);
  const Matrix grad = random_matrix(rng, 128, 256);
  for (auto _ : state) {
    const Matrix uv = apply_jacobian(a, g, grad);
    const Matrix y = cholesky_solve(chol, uv);
    Matrix out = grad - apply_jacobian_t(a, g, y);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SmwApply)->Arg(16)->Arg(64)->Arg(128);

void BM_Im2Col(benchmark::State& state) {
  const index_t hw = state.range(0);
  Rng rng(10);
  Tensor4 x(1, 16, hw, hw);
  for (index_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  const ConvGeometry geom{.in_c = 16, .in_h = hw, .in_w = hw, .kernel_h = 3,
                          .kernel_w = 3, .stride = 1, .pad = 1};
  Matrix cols;
  for (auto _ : state) {
    im2col(x.sample_ptr(0), geom, cols);
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2Col)->Arg(8)->Arg(16)->Arg(32);

}  // namespace
}  // namespace hylo

BENCHMARK_MAIN();
