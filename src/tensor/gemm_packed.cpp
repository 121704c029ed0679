#include "hylo/tensor/gemm_packed.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "hylo/common/check.hpp"
#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/elementwise.hpp"
#include "x86_vec.hpp"

#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace hylo::kern {

namespace {

// Cache blocking: KC-deep panels keep one MRxKC A panel (16 KB at MR=8)
// plus one KCxNR B panel (8-16 KB) L1-resident under the microkernel while
// the MCxKC A block stays in L2. Both are multiples of every tier's MR/NR.
constexpr index_t kKC = 256;
constexpr index_t kMC = 64;
constexpr index_t kMaxMR = 8;
constexpr index_t kMaxNR = 16;  // AVX-512's two-vector GEMM tile

/// C-tile (MR x NR at stride ldc) += Apanel · Bpanel over kc steps.
/// Apanel is MR-interleaved (ap[kk*MR + r]), Bpanel NR-interleaved
/// (bp[kk*NR + c]); the k loop is innermost, so each C element accumulates
/// in strictly ascending k order — the per-tier determinism anchor.
using MicroFn = void (*)(index_t kc, const real_t* ap, const real_t* bp,
                         real_t* c, index_t ldc);

// ---- Microkernel operand sources ---------------------------------------
// The x86 fma chain (gemm_x86.inc) reads a(k, r) and B row b(k) through
// these. They only say where the operands live, so every instantiation
// gives each C element the same chain.

/// A from an MR-interleaved packed panel: a(k, r) = ap[k·MR + r].
struct PanelA {
  const real_t* ap;
  real_t operator()(index_t k, int r) const { return ap[k * kMaxMR + r]; }
};

/// A read in place from a padded sample (direct wgrad, k = output position,
/// r = patch coordinate): a(k, r) = xp[pos[k] + joff[r]].
struct SampleA {
  const real_t* xp;
  const index_t* pos;
  const index_t* joff;
  real_t operator()(index_t k, int r) const { return xp[pos[k] + joff[r]]; }
};

/// B row k at p + k·ld (a packed panel has ld = NR).
struct RowsB {
  const real_t* p;
  index_t ld;
  const real_t* operator()(index_t k) const { return p + k * ld; }
};

/// B row k at row + off[k] (direct forward: NR consecutive output columns of
/// patch coordinate k, read in place from the phase planes).
struct OffsetB {
  const real_t* row;
  const index_t* off;
  const real_t* operator()(index_t k) const { return row + off[k]; }
};

/// A B row as two half-rows: lanes [0, NR/2) at lo, lanes [NR/2, NR) at hi.
struct Halves {
  const real_t* lo;
  const real_t* hi;
};

/// A two-row tile's B source: NR/2 lanes of source `one`'s row k, then NR/2
/// lanes `gap` further on (the next output or gin row).
template <typename B>
struct TwoRows {
  B one;
  index_t gap;
  Halves operator()(index_t k) const { return {one(k), one(k) + gap}; }
};

/// One rank's packed Gram operands in the running-factor pass: Aᵀ's
/// MR-interleaved panels at a (panel p at a + p·k·MR) and A's one-vector-wide
/// column panels at b (panel q at b + q·k·lanes), over its k rows.
struct GramPanels {
  const real_t* a;
  const real_t* b;
  index_t k;
};

/// One tap of a direct dgrad tile: ap holds W[o, c0 + r, ky, kx] as an
/// MR-interleaved panel over o, b is gout's row at the tap's shift (row o at
/// b + o·ostride; a two-row tile's second half `gap` further on), and
/// `mask` has bit l set when lane l's (oy, ox) lies inside gout.
struct DgradTap {
  const real_t* ap;
  const real_t* b;
  index_t gap;
  unsigned mask;
};

/// Direct conv kernels of one tier (DESIGN.md §13): C (MR x NR at ldc) +=
/// the chain over kc steps with the named sources (the forward's C starts
/// from bias[r] instead when bias != nullptr), and the dgrad tile, which
/// adds each tap's chain from +0.0 into the gin tile under the tap's mask.
using ConvFwdFn = void (*)(index_t kc, const real_t* ap, const real_t* row,
                           index_t gap, const index_t* off, real_t* c,
                           index_t ldc, const real_t* bias);
using ConvWgradFn = void (*)(index_t kc, const real_t* xp, const index_t* pos,
                             const index_t* joff, const real_t* bp,
                             index_t ldb, real_t* c, index_t ldc);
using ConvDgradFn = void (*)(index_t c_out, index_t ostride,
                             const DgradTap* taps, index_t ntaps, real_t* gin,
                             index_t ldg);

/// One MR x lanes tile of the running-factor pass (factor_tile in
/// gemm_x86.inc).
using FactorTileFn = void (*)(const GramPanels* ranks, index_t nranks,
                              index_t p, index_t q, real_t inv_m,
                              const real_t* old, index_t ldo, real_t decay,
                              real_t* c, index_t ldc);

/// One row of a phase plane (phase_planes): d[l] = src[(l − b)·ps] for l in
/// [b, b + n) and +0.0 for the rest of [0, w); src is not read when n = 0.
using PlaneRowFn = void (*)(real_t* d, index_t w, const real_t* src,
                            index_t b, index_t n, index_t ps);

void plane_row_scalar(real_t* d, index_t w, const real_t* src, index_t b,
                      index_t n, index_t ps) {
  for (index_t l = 0; l < w; ++l)
    d[l] = l >= b && l < b + n ? src[(l - b) * ps] : 0.0;
}

}  // namespace

// ---- x86 tiers -------------------------------------------------------------
// gemm_x86.inc holds each body once; every tier compiles it over its vector
// ops (x86_vec.hpp).

#if defined(__x86_64__) || defined(__i386__)
namespace avx512 {
namespace {
#define HYLO_TARGET HYLO_AVX512_TARGET
#include "gemm_x86.inc"
#undef HYLO_TARGET
}  // namespace
}  // namespace avx512

namespace avx2 {
namespace {
#define HYLO_TARGET HYLO_AVX2_TARGET
#include "gemm_x86.inc"
#undef HYLO_TARGET
}  // namespace
}  // namespace avx2
#endif  // x86

namespace {

#if defined(__aarch64__)

void micro_neon_8x4(index_t kc, const real_t* ap, const real_t* bp, real_t* c,
                    index_t ldc) {
  float64x2_t c0a = vld1q_f64(c + 0 * ldc), c0b = vld1q_f64(c + 0 * ldc + 2);
  float64x2_t c1a = vld1q_f64(c + 1 * ldc), c1b = vld1q_f64(c + 1 * ldc + 2);
  float64x2_t c2a = vld1q_f64(c + 2 * ldc), c2b = vld1q_f64(c + 2 * ldc + 2);
  float64x2_t c3a = vld1q_f64(c + 3 * ldc), c3b = vld1q_f64(c + 3 * ldc + 2);
  float64x2_t c4a = vld1q_f64(c + 4 * ldc), c4b = vld1q_f64(c + 4 * ldc + 2);
  float64x2_t c5a = vld1q_f64(c + 5 * ldc), c5b = vld1q_f64(c + 5 * ldc + 2);
  float64x2_t c6a = vld1q_f64(c + 6 * ldc), c6b = vld1q_f64(c + 6 * ldc + 2);
  float64x2_t c7a = vld1q_f64(c + 7 * ldc), c7b = vld1q_f64(c + 7 * ldc + 2);
  for (index_t k = 0; k < kc; ++k) {
    const float64x2_t blo = vld1q_f64(bp + k * 4);
    const float64x2_t bhi = vld1q_f64(bp + k * 4 + 2);
    const real_t* a = ap + k * 8;
    c0a = vfmaq_n_f64(c0a, blo, a[0]);
    c0b = vfmaq_n_f64(c0b, bhi, a[0]);
    c1a = vfmaq_n_f64(c1a, blo, a[1]);
    c1b = vfmaq_n_f64(c1b, bhi, a[1]);
    c2a = vfmaq_n_f64(c2a, blo, a[2]);
    c2b = vfmaq_n_f64(c2b, bhi, a[2]);
    c3a = vfmaq_n_f64(c3a, blo, a[3]);
    c3b = vfmaq_n_f64(c3b, bhi, a[3]);
    c4a = vfmaq_n_f64(c4a, blo, a[4]);
    c4b = vfmaq_n_f64(c4b, bhi, a[4]);
    c5a = vfmaq_n_f64(c5a, blo, a[5]);
    c5b = vfmaq_n_f64(c5b, bhi, a[5]);
    c6a = vfmaq_n_f64(c6a, blo, a[6]);
    c6b = vfmaq_n_f64(c6b, bhi, a[6]);
    c7a = vfmaq_n_f64(c7a, blo, a[7]);
    c7b = vfmaq_n_f64(c7b, bhi, a[7]);
  }
  vst1q_f64(c + 0 * ldc, c0a);
  vst1q_f64(c + 0 * ldc + 2, c0b);
  vst1q_f64(c + 1 * ldc, c1a);
  vst1q_f64(c + 1 * ldc + 2, c1b);
  vst1q_f64(c + 2 * ldc, c2a);
  vst1q_f64(c + 2 * ldc + 2, c2b);
  vst1q_f64(c + 3 * ldc, c3a);
  vst1q_f64(c + 3 * ldc + 2, c3b);
  vst1q_f64(c + 4 * ldc, c4a);
  vst1q_f64(c + 4 * ldc + 2, c4b);
  vst1q_f64(c + 5 * ldc, c5a);
  vst1q_f64(c + 5 * ldc + 2, c5b);
  vst1q_f64(c + 6 * ldc, c6a);
  vst1q_f64(c + 6 * ldc + 2, c6b);
  vst1q_f64(c + 7 * ldc, c7a);
  vst1q_f64(c + 7 * ldc + 2, c7b);
}

void vmul_neon(real_t* a, const real_t* b, index_t n) {
  index_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(a + i, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  for (; i < n; ++i) a[i] *= b[i];
}

void vscale_neon(real_t* dst, const real_t* src, real_t s, index_t n) {
  index_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(dst + i, vmulq_n_f64(vld1q_f64(src + i), s));
  for (; i < n; ++i) dst[i] = s * src[i];
}

real_t vdot_neon(const real_t* a, const real_t* b, index_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  index_t i = 0;
  for (; i + 2 <= n; i += 2)
    acc = vfmaq_f64(acc, vld1q_f64(a + i), vld1q_f64(b + i));
  real_t out = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; i < n; ++i) out += a[i] * b[i];
  return out;
}

#endif  // aarch64

struct TierCfg {
  index_t mr = 0;
  index_t nr = 0;     ///< the packed GEMM tile's width
  index_t lanes = 0;  ///< one vector: the conv and running-factor tiles' width
  MicroFn micro = nullptr;
  // Direct conv kernels, the forward and dgrad indexed by a tile's rows − 1;
  // null where the tier has none (NEON), whose convs all take the
  // materialized route.
  ConvFwdFn conv_fwd[2] = {};
  ConvWgradFn conv_wgrad = nullptr;
  ConvDgradFn conv_dgrad[2] = {};
  PlaneRowFn plane_row = plane_row_scalar;
  FactorTileFn factor_tile = nullptr;
};

TierCfg tier_cfg(Tier t) {
  switch (t) {
#if defined(__x86_64__) || defined(__i386__)
    case Tier::kAvx2:
      return {8,
              avx2::kTileNR,
              avx2::kW,
              avx2::micro,
              {avx2::conv_fwd<1>, avx2::conv_fwd<2>},
              avx2::conv_wgrad,
              {avx2::conv_dgrad<1>, avx2::conv_dgrad<2>},
              avx2::plane_row,
              avx2::factor_tile};
    case Tier::kAvx512:
      return {8,
              avx512::kTileNR,
              avx512::kW,
              avx512::micro,
              {avx512::conv_fwd<1>, avx512::conv_fwd<2>},
              avx512::conv_wgrad,
              {avx512::conv_dgrad<1>, avx512::conv_dgrad<2>},
              avx512::plane_row,
              avx512::factor_tile};
#endif
#if defined(__aarch64__)
    case Tier::kNeon:
      return {8, 4, 4, micro_neon_8x4};
#endif
    default:
      break;
  }
  HYLO_CHECK(false, "packed GEMM requires a SIMD kernel tier (active: "
                        << tier_name(t) << ")");
  return {};  // unreachable
}

/// Per-thread scratch, indexed so that buffers alive at the same time on one
/// thread never alias: 0 = a GEMM's B pack, 1 = its A pack (conv's
/// materialized route runs GEMMs inline but keeps its own matrices), 2 =
/// direct wgrad's goutᵀ or dgrad's gout copy, 3 = direct wgrad's gwᵀ or
/// dgrad's gin phase, 4 = a sample's planes, 5 = the running-factor pass's
/// Gram panels.
std::vector<real_t>& tl_scratch(int which) {
  static thread_local std::vector<real_t> bufs[6];
  return bufs[which];
}

/// Pack rows [i0, i0+mc) x [k0, k0+kc) of a logical operand into MR-tall
/// panels: dst[panel][kk*mr + r]. Rows past the operand (padding to MR) are
/// zero-filled so the microkernel can always run full-height. k is the outer
/// loop, so a transposed source (gram_tn, gemm_tn) reads one cache line per
/// k, not one per element.
template <typename SrcA>
void pack_a(real_t* dst, index_t i0, index_t mc, index_t k0, index_t kc,
            index_t mr, const SrcA& src) {
  for (index_t p = 0; p < mc; p += mr, dst += kc * mr) {
    const index_t rows = std::min(mr, mc - p);
    for (index_t kk = 0; kk < kc; ++kk) {
      real_t* out = dst + kk * mr;
      for (index_t r = 0; r < rows; ++r) out[r] = src(i0 + p + r, k0 + kk);
      for (index_t r = rows; r < mr; ++r) out[r] = 0.0;
    }
  }
}

/// Pack [k0, k0+kc) x [0, n) of a logical operand into NR-wide panels:
/// dst[panel][kk*nr + c], padding lanes zero-filled.
template <typename SrcB>
void pack_b(real_t* dst, index_t k0, index_t kc, index_t n, index_t nr,
            const SrcB& src) {
  index_t off = 0;
  for (index_t j0 = 0; j0 < n; j0 += nr) {
    const index_t jw = std::min(nr, n - j0);
    for (index_t kk = 0; kk < kc; ++kk) {
      real_t* out = dst + off + kk * nr;
      for (index_t l = 0; l < jw; ++l) out[l] = src(k0 + kk, j0 + l);
      for (index_t l = jw; l < nr; ++l) out[l] = 0.0;
    }
    off += kc * nr;
  }
}

/// The lanes of a register tile that land in C: lanes [0, n0) at c[l] and,
/// for a two-row tile, lanes [NR/2, NR/2 + n1) at c[gap + l − NR/2]; full()
/// when every lane lands, contiguously.
struct TileLanes {
  index_t n0, n1 = 0, gap = 0;
  bool full(index_t nr) const { return n0 + n1 == nr && (!n1 || gap == n0); }
};

/// Edge tile: run `kernel(tile, ld)` on a copy-in/copy-out scratch tile of
/// MR x nr (the kernel's width) so the per-element fma chain is identical to
/// a full tile's, then write back only the `rows` x `lanes` valid region.
template <typename Kernel>
void edge_tile(index_t nr, real_t* c, index_t ldc, index_t rows,
               TileLanes lanes, const Kernel& kernel) {
  real_t tmp[kMaxMR * kMaxNR];
  std::fill(tmp, tmp + kMaxMR * nr, 0.0);
  real_t* const hi = tmp + nr / 2;
  for (index_t r = 0; r < rows; ++r) {
    std::copy_n(c + r * ldc, lanes.n0, tmp + r * nr);
    std::copy_n(c + r * ldc + lanes.gap, lanes.n1, hi + r * nr);
  }
  kernel(tmp, nr);
  for (index_t r = 0; r < rows; ++r) {
    std::copy_n(tmp + r * nr, lanes.n0, c + r * ldc);
    std::copy_n(hi + r * nr, lanes.n1, c + r * ldc + lanes.gap);
  }
}

/// Which triangle a symmetric tile sweep (sym_tiles) writes: the upper one,
/// mirrored into the lower once accumulated (the Gram products), or the lower
/// one alone, in place (the Cholesky trailing update).
enum class Tri { kUpperMirrored, kLower };

/// Diagonal-straddling tiles of a symmetric sweep: like edge_tile, but only
/// elements of the swept triangle (the declared footprint) are copied in and
/// written back — in each tile row the run of columns [l0, l1) that lies in
/// it, diagonal included.
void micro_edge_tri(const TierCfg& cfg, index_t kc, const real_t* ap,
                    const real_t* bp, real_t* c, index_t ldc, index_t rows,
                    index_t cols, index_t i, index_t j0, Tri tri) {
  real_t tmp[kMaxMR * kMaxNR];
  std::fill(tmp, tmp + cfg.mr * cfg.nr, 0.0);
  const bool lower = tri == Tri::kLower;
  const auto run = [&](index_t r) {
    // Tile row r meets the diagonal at column i + r − j0.
    const index_t d = std::clamp<index_t>(i + r - j0 + lower, 0, cols);
    return lower ? std::pair<index_t, index_t>{0, d}
                 : std::pair<index_t, index_t>{d, cols};
  };
  for (index_t r = 0; r < rows; ++r) {
    const auto [l0, l1] = run(r);
    std::copy(c + r * ldc + l0, c + r * ldc + l1, tmp + r * cfg.nr + l0);
  }
  cfg.micro(kc, ap, bp, tmp, cfg.nr);
  for (index_t r = 0; r < rows; ++r) {
    const auto [l0, l1] = run(r);
    std::copy(tmp + r * cfg.nr + l0, tmp + r * cfg.nr + l1, c + r * ldc + l0);
  }
}

/// Mirror the upper triangle of rows [i0, i1) of the m x m block at cp into
/// their column tails, C(j, i) = C(i, j) for j > i, one 8 x 8 block at a
/// time: the same doubles, so symmetry is exact.
void mirror_rows(real_t* cp, index_t ldc, index_t m, index_t i0, index_t i1) {
  for (index_t ib = i0; ib < i1; ib += kMaxMR)
    for (index_t jb = ib; jb < m; jb += kMaxMR)
      for (index_t j = std::max(jb, ib + 1); j < std::min(jb + kMaxMR, m); ++j)
        for (index_t i = ib; i < std::min({ib + kMaxMR, i1, j}); ++i)
          cp[j * ldc + i] = cp[i * ldc + j];
}

/// Shared driver: C += srcA · srcB with C m x n at cp (row stride ldc),
/// inner dimension k. B is packed once on the calling thread; rows of C are
/// partitioned through hylo::par with an MR-aligned grain, each chunk
/// packing its own A blocks. With `b_lower` the B operand is lower
/// triangular and C starts at +0.0, so a tile starting at column j0 starts
/// its k loop at j0: the skipped products are exact zeros added to a +0
/// accumulator, so the bits equal the full sweep on any finite operand.
template <typename SrcA, typename SrcB>
void gemm_driver(index_t m, index_t n, index_t k, const SrcA& srcA,
                 const SrcB& srcB, real_t* cp, index_t ldc, bool b_lower,
                 const char* label) {
  if (m == 0 || n == 0 || k == 0) return;
  const TierCfg cfg = tier_cfg(active());
  const index_t mr = cfg.mr, nr = cfg.nr;
  const index_t npanels = (n + nr - 1) / nr;

  std::vector<real_t>& bpack = tl_scratch(0);
  bpack.resize(static_cast<std::size_t>(k * npanels * nr));
  for (index_t k0 = 0; k0 < k; k0 += kKC) {
    const index_t kc = std::min(kKC, k - k0);
    pack_b(bpack.data() + k0 * npanels * nr, k0, kc, n, nr, srcB);
  }
  const real_t* bp_all = bpack.data();

  par::parallel_for(
      0, m, mr,
      [&](index_t i0, index_t i1) {
        std::vector<real_t>& apack = tl_scratch(1);
        // pack_a pads the row count up to a whole number of MR panels.
        const index_t mc_pad =
            ((std::min(kMC, i1 - i0) + mr - 1) / mr) * mr;
        apack.resize(static_cast<std::size_t>(mc_pad * std::min(kKC, k)));
        for (index_t k0 = 0; k0 < k; k0 += kKC) {
          const index_t kc = std::min(kKC, k - k0);
          const real_t* bblk = bp_all + k0 * npanels * nr;
          for (index_t ic = i0; ic < i1; ic += kMC) {
            const index_t mc = std::min(kMC, i1 - ic);
            pack_a(apack.data(), ic, mc, k0, kc, mr, srcA);
            for (index_t p = 0; p < mc; p += mr) {
              const real_t* ap = apack.data() + (p / mr) * kc * mr;
              const index_t rows = std::min(mr, mc - p);
              real_t* crow = cp + (ic + p) * ldc;
              for (index_t q = 0; q < npanels; ++q) {
                const index_t j0 = q * nr;
                const index_t jw = std::min(nr, n - j0);
                const index_t skip =
                    b_lower ? std::clamp<index_t>(j0 - k0, 0, kc) : 0;
                if (skip == kc) continue;
                const real_t* a_k = ap + skip * mr;
                const real_t* b_k = bblk + q * kc * nr + skip * nr;
                if (rows == mr && jw == nr)
                  cfg.micro(kc - skip, a_k, b_k, crow + j0, ldc);
                else
                  edge_tile(nr, crow + j0, ldc, rows, {jw},
                            [&](real_t* t, index_t ld) {
                              cfg.micro(kc - skip, a_k, b_k, t, ld);
                            });
              }
            }
          }
        }
      },
      label,
      audit::Footprint([cp, ldc, m, n](index_t i0, index_t i1,
                                       audit::WriteSet& ws) {
        ws.track(cp, sizeof(real_t) *
                         static_cast<std::size_t>((m - 1) * ldc + n));
        for (index_t i = i0; i < i1; ++i) ws.add_range(cp + i * ldc, 0, n);
      }));
}

/// The triangle tile loop shared by gram_nt, gram_tn and the trailing
/// update: one triangle (diagonal included) of the square block
/// c[off:, off:] += srcA · srcB, inner dimension k (the mirrored upper sweep
/// is only used with off == 0). B is packed once on the calling
/// thread; rows are partitioned with an MR-aligned grain. Tiles wholly
/// outside the triangle are skipped and straddling tiles go through
/// micro_edge_tri, so no element outside the triangle is read or written.
/// With `tril_source` the operand is lower triangular (column j is zero above
/// row j), so a tile starting at column j0 of the upper triangle starts its k
/// loop at j0: the skipped products are exact zeros added to a +0
/// accumulator, so the bits equal the full sweep on any finite operand.
template <typename SrcA, typename SrcB>
void sym_tiles(Matrix& c, index_t off, index_t k, const SrcA& srcA,
               const SrcB& srcB, Tri tri, bool tril_source,
               const char* label) {
  const index_t m = c.rows() - off, ldc = c.cols();
  if (m == 0 || k == 0) return;
  real_t* cp = c.data() + off * ldc + off;
  const TierCfg cfg = tier_cfg(active());
  const index_t mr = cfg.mr, nr = cfg.nr;
  const index_t npanels = (m + nr - 1) / nr;

  std::vector<real_t>& bpack = tl_scratch(0);
  bpack.resize(static_cast<std::size_t>(k * npanels * nr));
  for (index_t k0 = 0; k0 < k; k0 += kKC) {
    const index_t kc = std::min(kKC, k - k0);
    pack_b(bpack.data() + k0 * npanels * nr, k0, kc, m, nr, srcB);
  }
  const real_t* bp_all = bpack.data();

  par::parallel_for(
      0, m, mr,
      [&](index_t i0, index_t i1) {
        std::vector<real_t>& apack = tl_scratch(1);
        const index_t mc_pad =
            ((std::min(kMC, i1 - i0) + mr - 1) / mr) * mr;
        apack.resize(static_cast<std::size_t>(mc_pad * std::min(kKC, k)));
        for (index_t k0 = 0; k0 < k; k0 += kKC) {
          const index_t kc = std::min(kKC, k - k0);
          const real_t* bblk = bp_all + k0 * npanels * nr;
          for (index_t ic = i0; ic < i1; ic += kMC) {
            const index_t mc = std::min(kMC, i1 - ic);
            pack_a(apack.data(), ic, mc, k0, kc, mr, srcA);
            for (index_t p = 0; p < mc; p += mr) {
              const real_t* ap = apack.data() + (p / mr) * kc * mr;
              const index_t i = ic + p;
              const index_t rows = std::min(mr, mc - p);
              real_t* crow = cp + i * ldc;
              for (index_t q = 0; q < npanels; ++q) {
                const index_t j0 = q * nr;
                const index_t jw = std::min(nr, m - j0);
                const bool outside = tri == Tri::kLower ? j0 >= i + rows
                                                        : j0 + jw <= i;
                if (outside) continue;
                const index_t skip =
                    tril_source ? std::clamp<index_t>(j0 - k0, 0, kc) : 0;
                if (skip == kc) continue;
                const real_t* a_k = ap + skip * mr;
                const real_t* b_k = bblk + q * kc * nr + skip * nr;
                const bool inside = tri == Tri::kLower ? j0 + nr - 1 <= i
                                                       : j0 >= i + mr - 1;
                if (rows == mr && jw == nr && inside)
                  cfg.micro(kc - skip, a_k, b_k, crow + j0, ldc);
                else
                  micro_edge_tri(cfg, kc - skip, a_k, b_k, crow + j0, ldc,
                                 rows, jw, i, j0, tri);
              }
            }
          }
        }
        // Mirror the chunk's rows once, after every KC block has
        // accumulated.
        if (tri == Tri::kUpperMirrored) mirror_rows(cp, ldc, m, i0, i1);
      },
      label,
      audit::Footprint([&c, off, tri](index_t i0, index_t i1,
                                      audit::WriteSet& ws) {
        if (tri == Tri::kLower) {
          ws.add_row_head(c, off + i0, off + i1, off);
        } else {
          ws.add_row_tail(c, i0, i1);
          ws.add_col_tail(c, i0, i1);
        }
      }));
}

// ---- Conv input layout ----------------------------------------------------

/// One axis of stride phase r: the input indices i0, i0 + s, … (n of them)
/// at padded index ≡ r (mod s), phase-plane index b onwards; tap
/// k = q·s + r takes the t-th of them to output index t + b − q.
struct Phase {
  index_t r, i0, n, b;
};

Phase conv_phase(index_t r, index_t in, index_t pad, index_t st) {
  const index_t i0 = ((r - pad) % st + st) % st;
  return {r, i0, i0 < in ? (in - i0 + st - 1) / st : 0, (i0 + pad - r) / st};
}

/// A conv input as phase planes of the padded sample: plane (ry, rx) holds
/// its rows ry, ry + ps, … and columns rx, rx + ps, …, a C x hq x wq grid.
/// Split (ps = s), tap (qy·s + ry, qx·s + rx) of output (oy, ox) is element
/// (c, oy + qy, ox + qx) of plane (ry, rx), so each patch row is a
/// contiguous run; only planes some tap reads exist. Unsplit (ps = 1) the
/// one plane is the zero-padded sample, read at stride s. Patch element
/// (j, p) — patch coordinate j = (c, ky, kx), output position p = (oy, ox)
/// — is planes[patch[j] + pos[p]]. `patch` runs on to a whole number of MR
/// with offset 0, so a direct wgrad tile's pad rows read a valid element.
struct ConvOffsets {
  ConvGeometry g;              ///< the geometry these offsets are for
  index_t ps = 0;              ///< phase stride: s split, 1 unsplit
  index_t hq = 0, wq = 0;      ///< ⌈Hp/ps⌉, ⌈Wp/ps⌉
  std::vector<index_t> patch;  ///< plane(ky%ps, kx%ps) + (c·hq + ky/ps)·wq…
  std::vector<index_t> pos;    ///< (oy·wq + ox)·s/ps
  std::vector<Phase> rows, cols;  ///< the phases that have taps
};

/// The offsets of geometry g, kept per thread until g or the split changes.
const ConvOffsets& conv_offsets(const ConvGeometry& g, bool split) {
  static thread_local ConvOffsets o;
  const index_t st = g.stride, ps = split ? st : 1;
  if (o.g == g && o.ps == ps) return o;
  o.g = g;
  o.ps = ps;
  const index_t oh = g.out_h(), ow = g.out_w();
  const index_t kh = g.kernel_h, kw = g.kernel_w;
  o.rows.resize(static_cast<std::size_t>(std::min(ps, kh)));
  o.cols.resize(static_cast<std::size_t>(std::min(ps, kw)));
  for (std::size_t r = 0; r < o.rows.size(); ++r)
    o.rows[r] = conv_phase(static_cast<index_t>(r), g.in_h, g.pad, ps);
  for (std::size_t r = 0; r < o.cols.size(); ++r)
    o.cols[r] = conv_phase(static_cast<index_t>(r), g.in_w, g.pad, ps);
  const index_t nrx = static_cast<index_t>(o.cols.size());
  o.hq = (g.in_h + 2 * g.pad + ps - 1) / ps;
  o.wq = (g.in_w + 2 * g.pad + ps - 1) / ps;
  const index_t plane = g.in_c * o.hq * o.wq;
  o.patch.assign(static_cast<std::size_t>((g.patch_size() + kMaxMR - 1) /
                                          kMaxMR * kMaxMR),
                 0);
  // Channel 0's taps, then each channel's at c·hq·wq past them.
  for (index_t t = 0; t < kh * kw; ++t) {
    const index_t ky = t / kw, kx = t % kw;
    o.patch[static_cast<std::size_t>(t)] =
        ((ky % ps) * nrx + kx % ps) * plane + ky / ps * o.wq + kx / ps;
  }
  for (index_t j = kh * kw; j < g.patch_size(); ++j)
    o.patch[static_cast<std::size_t>(j)] =
        o.patch[static_cast<std::size_t>(j - kh * kw)] + o.hq * o.wq;
  o.pos.resize(static_cast<std::size_t>(oh * ow));
  index_t* pp = o.pos.data();
  for (index_t oy = 0; oy < oh; ++oy)
    for (index_t ox = 0; ox < ow; ++ox) *pp++ = (oy * o.wq + ox) * (st / ps);
  return o;
}

/// Copy one NCHW sample into its planes in per-thread scratch, each element
/// once and a plane row at a time (the tier's plane_row), then `slack` zeros
/// for the lanes a forward or capture reads past a row's end. Unsplit with
/// pad 0 and no slack, x already is that layout.
const real_t* phase_planes(const TierCfg& cfg, const real_t* x,
                           const ConvGeometry& g, const ConvOffsets& o,
                           index_t slack) {
  const index_t ps = o.ps, pad = g.pad, wq = o.wq;
  if (ps == 1 && pad == 0 && slack == 0) return x;
  std::vector<real_t>& buf = tl_scratch(4);
  buf.resize(o.rows.size() * o.cols.size() *
                 static_cast<std::size_t>(g.in_c * o.hq * wq) +
             static_cast<std::size_t>(slack));
  real_t* d = buf.data();
  for (const Phase& py : o.rows)
    for (const Phase& px : o.cols)
      // Plane rows [py.b, py.b + py.n) hold sample rows py.i0, py.i0 + ps, …
      // and columns likewise; the rest is padding.
      for (index_t c = 0; c < g.in_c; ++c)
        for (index_t y = 0; y < o.hq; ++y, d += wq) {
          const index_t t = y - py.b;
          if (t < 0 || t >= py.n)
            cfg.plane_row(d, wq, x, 0, 0, ps);
          else
            cfg.plane_row(d, wq,
                          x + (c * g.in_h + py.i0 + t * ps) * g.in_w + px.i0,
                          px.b, px.n, ps);
        }
  std::fill_n(d, slack, 0.0);
  return buf.data();
}

void check_packed_tier(const PackedW& pw) {
  HYLO_CHECK(pw.tier == active(),
             "conv weights packed for tier '" << tier_name(pw.tier)
                                              << "' but active tier is '"
                                              << tier_name(active()) << "'");
}

// ---- Direct conv passes -------------------------------------------------

/// Sec. IV capture of a forward, either route, a pass of its own over the
/// phase planes: each NR-block of flat output positions is summed
/// lane-ascending, zero pad lanes included, and the block sums are added
/// block-ascending. Patch coordinates (c, ky, kx), (c, ky, kx + s), … are
/// consecutive in one plane, so four run as the lanes of one vector add,
/// each keeping its chain; lanes past the kernel are dropped. Four blocks'
/// chains run interleaved, their sums still added in block order.
void conv_capture(const real_t* xp, const ConvOffsets& o,
                  const ConvGeometry& g, index_t nr, real_t* capture_row) {
  constexpr index_t kLanes = 4;
  using Vec = real_t __attribute__((vector_size(kLanes * sizeof(real_t))));
  const index_t s = static_cast<index_t>(o.pos.size());
  const index_t* pos = o.pos.data();
  const index_t st = o.ps, kw = g.kernel_w;
  for (index_t j0 = 0; j0 < g.patch_size(); j0 += kw)  // each (c, ky)
    for (const Phase& px : o.cols)
      for (index_t kx = px.r; kx < kw; kx += kLanes * st) {
        const real_t* base = xp + o.patch[static_cast<std::size_t>(j0 + kx)];
        // acc += the four lanes at output position p.
        const auto add = [base, pos](Vec& acc, index_t p) {
          Vec v;
          std::memcpy(&v, base + pos[p], sizeof v);
          acc += v;
        };
        Vec sum = {};
        index_t p0 = 0;
        for (; p0 + 4 * nr <= s; p0 += 4 * nr) {
          Vec b0 = {}, b1 = {}, b2 = {}, b3 = {};
          for (index_t l = 0; l < nr; ++l) {
            add(b0, p0 + l);
            add(b1, p0 + nr + l);
            add(b2, p0 + 2 * nr + l);
            add(b3, p0 + 3 * nr + l);
          }
          sum += b0;
          sum += b1;
          sum += b2;
          sum += b3;
        }
        for (; p0 < s; p0 += nr) {
          const index_t lanes = std::min(nr, s - p0);
          Vec block = {};
          for (index_t l = 0; l < lanes; ++l) add(block, p0 + l);
          for (index_t l = lanes; l < nr; ++l) block += Vec{};
          sum += block;
        }
        for (index_t t = 0; t < kLanes && kx + t * st < kw; ++t)
          capture_row[j0 + kx + t * st] = sum[t];
      }
}

/// Direct forward, out_plane = bias + the chains: a tile is MR output
/// channels x NR output positions, its first KC block started from the bias,
/// B row k read in place at xp + patch[k] + oy·wq + ox0: NR consecutive
/// columns of output row oy or, for rows narrower than NR, NR/2 columns of
/// each of rows oy and oy + 1 (a two-row tile). Lanes past the output (a
/// partial lane block, the row under an odd last row) run as an edge tile
/// and are dropped; they read on into the planes, at worst into the slack.
void direct_forward(const TierCfg& cfg, const PackedW& pw, const real_t* xp,
                    const ConvOffsets& o, const ConvGeometry& g,
                    real_t* out_plane) {
  const index_t c_out = pw.rows, patch = pw.cols, mr = cfg.mr, nr = cfg.lanes;
  const index_t oh = g.out_h(), ow = g.out_w(), s = oh * ow;
  const int two = ow < nr;
  const index_t lw = nr >> two;  // lanes per output row
  const index_t npan_m = (c_out + mr - 1) / mr;
  for (index_t k0 = 0; k0 < patch; k0 += kKC) {
    const index_t kc = std::min(kKC, patch - k0);
    const real_t* ablk = pw.data.data() + k0 * npan_m * mr;
    const index_t* off = o.patch.data() + k0;
    for (index_t oy = 0; oy < oh; oy += 1 + two)
      for (index_t ox0 = 0; ox0 < ow; ox0 += lw) {
        const index_t n0 = std::min(lw, ow - ox0);
        const TileLanes lanes{n0, two && oy + 1 < oh ? n0 : 0, ow};
        const real_t* row = xp + oy * o.wq + ox0;
        const index_t gap = lanes.n1 > 0 ? o.wq : 0;
        for (index_t p = 0; p < c_out; p += mr) {
          const real_t* ap = ablk + (p / mr) * kc * mr;
          const index_t rows = std::min(mr, c_out - p);
          real_t* c = out_plane + p * s + oy * ow + ox0;
          const real_t* bias = k0 == 0 ? pw.bias.data() + p : nullptr;
          if (rows == mr && lanes.full(nr))
            cfg.conv_fwd[two](kc, ap, row, gap, off, c, s, bias);
          else
            edge_tile(nr, c, s, rows, lanes, [&](real_t* t, index_t ld) {
              cfg.conv_fwd[two](kc, ap, row, gap, off, t, ld, bias);
            });
        }
      }
  }
}

/// Direct weight gradient over every sample for gw rows [o0, o1): gwᵀ tiles
/// of MR patch coordinates x NR output channels accumulate over k = output
/// position, A broadcast in place from the padded sample (unsplit planes)
/// and B from goutᵀ, the only pack. The chunk's gw rows sit transposed in a
/// per-thread scratch from before the first sample to after the last, so
/// each element keeps its sample-ascending, position-ascending chain. The
/// bias row sums each gout row as it is transposed, output channels across
/// the lanes: fma(g, 1.0, c) == g + c exactly.
void direct_wgrad(const TierCfg& cfg, const Tensor4& gout, const Tensor4& x,
                  const ConvGeometry& g, Matrix& gw, index_t o0, index_t o1) {
  const index_t mr = cfg.mr, nr = cfg.lanes, patch = g.patch_size();
  const index_t s = g.out_h() * g.out_w();
  const index_t ld = (o1 - o0 + nr - 1) / nr * nr;
  const index_t rows = (patch + mr - 1) / mr * mr;
  // gwᵀ: rows [0, patch) the kernel, row `rows` the bias. Pad rows and
  // columns accumulate values that are never written back.
  std::vector<real_t>& acc = tl_scratch(3);
  acc.assign(static_cast<std::size_t>((rows + 1) * ld), 0.0);
  real_t* gwt = acc.data();
  real_t* bias = gwt + rows * ld;
  transpose(gw.row_ptr(o0), o1 - o0, patch, gw.cols(), gwt, ld, nullptr);
  for (index_t o = o0; o < o1; ++o) bias[o - o0] = gw(o, patch);
  std::vector<real_t>& gt_buf = tl_scratch(2);
  gt_buf.assign(static_cast<std::size_t>(s * ld), 0.0);
  real_t* gt = gt_buf.data();
  const ConvOffsets& offs = conv_offsets(g, false);
  for (index_t i = 0; i < x.n(); ++i) {
    const real_t* xp = phase_planes(cfg, x.sample_ptr(i), g, offs, 0);
    transpose(gout.sample_ptr(i) + o0 * s, o1 - o0, s, s, gt, ld, bias);
    for (index_t j0 = 0; j0 < rows; j0 += mr)
      for (index_t q = 0; q < ld; q += nr)
        cfg.conv_wgrad(s, xp, offs.pos.data(), offs.patch.data() + j0,
                       gt + q, ld, gwt + j0 * ld + q, ld);
  }
  transpose(gwt, patch, o1 - o0, ld, gw.row_ptr(o0), gw.cols(), nullptr);
  for (index_t o = o0; o < o1; ++o) gw(o, patch) = bias[o - o0];
}

/// Direct-dgrad weight pack, [c-block][ky][kx][o][MR]: W[o, c0 + r, ky, kx],
/// zero where c0 + r >= in_c.
PackedW pack_direct_dgrad_w(const TierCfg& cfg, const Matrix& w_aug,
                            const ConvGeometry& g) {
  const index_t c_out = w_aug.rows(), mr = cfg.mr;
  const index_t taps = g.kernel_h * g.kernel_w;
  PackedW pw{active(), g.patch_size(), c_out, {}, {}, {}};
  pw.data.assign(static_cast<std::size_t>((g.in_c + mr - 1) / mr * mr *
                                          taps * c_out),
                 0.0);
  real_t* d = pw.data.data();
  for (index_t c0 = 0; c0 < g.in_c; c0 += mr) {
    const index_t rows = std::min(mr, g.in_c - c0);
    for (index_t t = 0; t < taps; ++t)
      for (index_t o = 0; o < c_out; ++o, d += mr)
        for (index_t r = 0; r < rows; ++r) d[r] = w_aug(o, (c0 + r) * taps + t);
  }
  return pw;
}

/// Direct data gradient for one sample, one gin stride phase at a time.
/// Phase (py, px) holds the gin elements whose taps are ky ≡ py, kx ≡ px
/// (mod s); it is gathered into a per-thread grid (at stride 1 the one phase
/// is gin itself, added into in place) and scattered back. A tile is MR input
/// channels x NR columns of one grid row or, for rows narrower than NR, NR/2
/// columns of each of two rows. Its taps run (ky, kx)-descending; each
/// computes D = Σ_o W[o, c, ky, kx]·gout[o, oy, ox] as an o-ascending fma
/// chain from +0.0 and adds it on the lanes whose (oy, ox) lies inside gout,
/// each half of a two-row tile masked by its own row. Per gin element that is
/// col2im_add's order (oy, then ox ascending) restricted to the taps that
/// reach it, and each term is dcolsᵀ's chain.
void direct_dgrad(const TierCfg& cfg, const real_t* gout_plane,
                  const PackedW& pw, const ConvGeometry& g,
                  real_t* gin_plane) {
  const index_t mr = cfg.mr, nr = cfg.lanes, c_out = pw.cols;
  const index_t kh = g.kernel_h, kw = g.kernel_w, st = g.stride;
  const index_t oh = g.out_h(), ow = g.out_w();
  const ConvOffsets& o = conv_offsets(g, true);  // gin's stride phases
  // gout is read from a per-thread copy, row oy of channel o at gp +
  // (o·oh + oy)·ow, between kw zeros and kw + nr zeros: a tap's lanes start
  // less than kw columns left of a row and end less than kw + nr columns
  // past it. Masked lanes may read a neighbouring row, in bounds.
  const index_t go_size = c_out * oh * ow;
  std::vector<real_t>& gbuf = tl_scratch(2);
  gbuf.resize(static_cast<std::size_t>(go_size + 2 * kw + nr));
  std::fill_n(gbuf.begin(), kw, 0.0);
  std::copy_n(gout_plane, go_size, gbuf.begin() + kw);
  std::fill(gbuf.begin() + kw + go_size, gbuf.end(), 0.0);
  const real_t* gp = gbuf.data() + kw;
  const index_t ostride = oh * ow, tap_panel = c_out * mr;
  static thread_local std::vector<DgradTap> taps;
  taps.resize(static_cast<std::size_t>(kh * kw));
  for (const Phase& py : o.rows)
    for (const Phase& px : o.cols) {
      const index_t ny = py.n, nx = px.n, plane = ny * nx;
      // gin (c, py.i0 + Y·s, px.i0 + X·s) is grid[(c·ny + Y)·nx + X];
      // move(f) runs f(grid element, gin element) over the phase.
      real_t* grid = gin_plane;
      const auto move = [&](auto f) {
        for (index_t c = 0; c < g.in_c; ++c)
          for (index_t y = 0; y < ny; ++y) {
            real_t* in = gin_plane + (c * g.in_h + py.i0 + y * st) * g.in_w +
                         px.i0;
            real_t* gr = grid + (c * ny + y) * nx;
            for (index_t xq = 0; xq < nx; ++xq) f(gr[xq], in[xq * st]);
          }
      };
      if (st > 1) {
        tl_scratch(3).resize(static_cast<std::size_t>(g.in_c * plane));
        grid = tl_scratch(3).data();
        move([](real_t& gr, real_t& in) { gr = in; });
      }
      const int two = nx < nr;
      const index_t lw = nr >> two;  // lanes per grid row
      const index_t qy_top = (kh - 1 - py.r) / st;
      const index_t qx_top = (kw - 1 - px.r) / st;
      for (index_t c0 = 0; c0 < g.in_c; c0 += mr) {
        const index_t rows = std::min(mr, g.in_c - c0);
        const real_t* wc = pw.data.data() + (c0 / mr) * kh * kw * tap_panel;
        for (index_t y = 0; y < ny; y += 1 + two)
          for (index_t x0 = 0; x0 < nx; x0 += lw) {
            const index_t n0 = std::min(lw, nx - x0);
            const TileLanes lanes{n0, two && y + 1 < ny ? n0 : 0, nx};
            index_t nt = 0;
            for (index_t qy = qy_top; qy >= 0; --qy) {
              // Lanes [0, lw) read gout row oy, the second row's oy + 1.
              const index_t oy = y + py.b - qy;
              const bool in0 = oy >= 0 && oy < oh;
              const bool in1 = lanes.n1 > 0 && oy + 1 >= 0 && oy + 1 < oh;
              if (!in0 && !in1) continue;
              for (index_t qx = qx_top; qx >= 0; --qx) {
                // Lane l reads ox = shift + l; it has a term iff 0 <= ox < ow.
                const index_t shift = x0 + px.b - qx;
                const index_t lo = std::max<index_t>(0, -shift);
                const index_t hi = std::min(n0, ow - shift);
                if (lo >= hi) continue;
                const unsigned bits = ((1u << hi) - 1) & ~((1u << lo) - 1);
                taps[static_cast<std::size_t>(nt++)] = {
                    wc + ((qy * st + py.r) * kw + qx * st + px.r) * tap_panel,
                    gp + (in0 ? oy : oy + 1) * ow + shift, in0 && in1 ? ow : 0,
                    (in0 ? bits : 0u) | (in1 ? bits << lw : 0u)};
              }
            }
            if (nt == 0) continue;
            real_t* c = grid + (c0 * ny + y) * nx + x0;
            if (rows == mr && lanes.full(nr))
              cfg.conv_dgrad[two](c_out, ostride, taps.data(), nt, c, plane);
            else
              edge_tile(nr, c, plane, rows, lanes, [&](real_t* t, index_t ld) {
                cfg.conv_dgrad[two](c_out, ostride, taps.data(), nt, t, ld);
              });
          }
      }
      if (st > 1) move([](real_t& gr, real_t& in) { in = gr; });
    }
}

// ---- Materialized conv passes -------------------------------------------
// The GEMMs that define the conv passes, run as such for NEON and for the
// geometries conv_direct leaves out: cols = im2col(x) per sample, then the
// tier's packed GEMMs, which run inline inside Conv2d's parallel chunks.

/// out_plane = bias + W_main · colsᵀ.
void im2col_forward(const PackedW& pw, const real_t* x, const ConvGeometry& g,
                    real_t* out_plane) {
  Matrix cols;
  im2col(x, g, cols);
  Matrix y(pw.rows, cols.rows());
  for (index_t o = 0; o < pw.rows; ++o)
    std::fill_n(y.row_ptr(o), y.cols(), pw.bias[static_cast<std::size_t>(o)]);
  packed_gemm_nt(pw.main, cols, y, 1.0);
  std::copy_n(y.data(), y.size(), out_plane);
}

/// gw rows [o0, o1) += Σ_i gout_i[o0:o1, :] · [cols(x_i) | 1].
void im2col_wgrad(const Tensor4& gout, const Tensor4& x, const ConvGeometry& g,
                  Matrix& gw, index_t o0, index_t o1) {
  const index_t s = g.out_h() * g.out_w();
  Matrix acc = gw.rows_range(o0, o1), go(o1 - o0, s), cols;
  for (index_t i = 0; i < x.n(); ++i) {
    im2col(x.sample_ptr(i), g, cols);
    std::copy_n(gout.sample_ptr(i) + o0 * s, go.size(), go.data());
    packed_gemm_nn(go, cols.with_ones_column(), acc, 1.0);
  }
  std::copy_n(acc.data(), acc.size(), gw.row_ptr(o0));
}

/// gin_plane += col2im(gout_planeᵀ · W_main).
void im2col_dgrad(const real_t* gout_plane, const PackedW& pw,
                  const ConvGeometry& g, real_t* gin_plane) {
  Matrix go(pw.rows, g.out_h() * g.out_w()), dcols(go.cols(), pw.cols);
  std::copy_n(gout_plane, go.size(), go.data());
  packed_gemm_tn(go, nullptr, pw.main, dcols, 1.0);
  col2im_add(dcols, g, gin_plane);
}

/// The materialized route's weight operand: W_main (c_out x patch) itself.
PackedW materialized_w(const Matrix& w_aug) {
  PackedW pw{active(), w_aug.rows(), w_aug.cols() - 1, {}, {}, {}};
  pw.main.resize(pw.rows, pw.cols);
  for (index_t o = 0; o < pw.rows; ++o)
    std::copy_n(w_aug.row_ptr(o), pw.cols, pw.main.row_ptr(o));
  return pw;
}

}  // namespace

void packed_gemm_nn(const Matrix& a, const Matrix& b, Matrix& c,
                    real_t alpha) {
  const index_t m = a.rows(), k = a.cols(), n = b.cols();
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  const index_t lda = k, ldb = n;
  gemm_driver(
      m, n, k,
      [pa, lda, alpha](index_t i, index_t kk) { return alpha * pa[i * lda + kk]; },
      [pb, ldb](index_t kk, index_t j) { return pb[kk * ldb + j]; },
      c.data(), c.cols(), false, "tensor/gemm");
}

void packed_gemm_tn(const Matrix& a, const real_t* s, const Matrix& b,
                    Matrix& c, real_t alpha) {
  const index_t k = a.rows(), m = a.cols(), n = b.cols();
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  const index_t lda = m, ldb = n;
  if (s == nullptr) {
    gemm_driver(
        m, n, k,
        [pa, lda, alpha](index_t i, index_t kk) {
          return alpha * pa[kk * lda + i];
        },
        [pb, ldb](index_t kk, index_t j) { return pb[kk * ldb + j]; },
        c.data(), c.cols(), false, "tensor/gemm_tn");
  } else {
    // Fold the diagonal into the A pack with the same association as the
    // scalar kernel: (alpha * s_k) * a_ki.
    gemm_driver(
        m, n, k,
        [pa, lda, alpha, s](index_t i, index_t kk) {
          return (alpha * s[kk]) * pa[kk * lda + i];
        },
        [pb, ldb](index_t kk, index_t j) { return pb[kk * ldb + j]; },
        c.data(), c.cols(), false, "tensor/gemm_tn");
  }
}

void packed_gemm_nt(const Matrix& a, const Matrix& b, Matrix& c,
                    real_t alpha) {
  const index_t m = a.rows(), k = a.cols(), n = b.rows();
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  const index_t lda = k, ldb = k;
  gemm_driver(
      m, n, k,
      [pa, lda, alpha](index_t i, index_t kk) { return alpha * pa[i * lda + kk]; },
      [pb, ldb](index_t kk, index_t j) { return pb[j * ldb + kk]; },
      c.data(), c.cols(), false, "tensor/gemm_nt");
}

void packed_gemm_strided(index_t m, index_t n, index_t k, const real_t* a,
                         index_t lda, const real_t* b, index_t ldb, real_t* c,
                         index_t ldc, real_t alpha, bool b_lower) {
  gemm_driver(
      m, n, k,
      [a, lda, alpha](index_t i, index_t kk) { return alpha * a[i * lda + kk]; },
      [b, ldb](index_t kk, index_t j) { return b[kk * ldb + j]; }, c, ldc,
      b_lower, "tensor/gemm_strided");
}

void packed_gram_nt(const Matrix& a, Matrix& c) {
  const index_t m = a.rows(), k = a.cols();
  HYLO_CHECK(c.rows() == m && c.cols() == m, "packed_gram_nt C shape");
  const real_t* pa = a.data();
  sym_tiles(
      c, 0, k, [pa, k](index_t i, index_t kk) { return pa[i * k + kk]; },
      [pa, k](index_t kk, index_t j) { return pa[j * k + kk]; },
      Tri::kUpperMirrored, false, "tensor/gram_nt");
}

void packed_gram_tn(const Matrix& a, Matrix& c, bool tril) {
  const index_t k = a.rows(), m = a.cols();
  HYLO_CHECK(c.rows() == m && c.cols() == m, "packed_gram_tn C shape");
  const real_t* pa = a.data();
  sym_tiles(
      c, 0, k, [pa, m](index_t i, index_t kk) { return pa[kk * m + i]; },
      [pa, m](index_t kk, index_t j) { return pa[kk * m + j]; },
      Tri::kUpperMirrored, tril, "tensor/gram_tn");
}

void packed_syrk_trailing(Matrix& c, index_t k0, index_t k1, real_t alpha) {
  const index_t n = c.rows();
  const real_t* p = c.data() + k1 * n + k0;  // P = c[k1:n, k0:k1]
  sym_tiles(
      c, k1, k1 - k0,
      [p, n, alpha](index_t i, index_t kk) { return alpha * p[i * n + kk]; },
      [p, n](index_t kk, index_t j) { return p[j * n + kk]; }, Tri::kLower,
      false, "tensor/syrk_trailing");
}

void packed_running_factor(const std::vector<Matrix>& ranks, real_t inv_m,
                           const Matrix* old, real_t decay, Matrix& out) {
  const index_t n = out.rows(), nranks = static_cast<index_t>(ranks.size());
  const TierCfg cfg = tier_cfg(active());
  HYLO_CHECK(cfg.factor_tile != nullptr,
             "running factor pass needs an x86 tier (active: "
                 << tier_name(active()) << ")");
  const index_t mr = cfg.mr, nr = cfg.lanes;
  const index_t npan_a = (n + mr - 1) / mr, npan_b = (n + nr - 1) / nr;
  // Every rank's Gram operands, packed once over all its rows: Aᵀ as MR-tall
  // panels (A's columns, read a row of A at a time) and A as NR-wide ones.
  index_t total = 0;
  for (const Matrix& a : ranks) total += a.rows() * (npan_a * mr + npan_b * nr);
  std::vector<real_t>& buf = tl_scratch(5);
  buf.resize(static_cast<std::size_t>(total));
  std::vector<GramPanels> panels;
  panels.reserve(ranks.size());
  real_t* dst = buf.data();
  for (const Matrix& a : ranks) {
    HYLO_CHECK(a.cols() == n, "rank capture has " << a.cols()
                                                  << " columns, factor " << n);
    const index_t k = a.rows();
    const real_t* pa = a.data();
    const auto src = [pa, n](index_t kk, index_t j) { return pa[kk * n + j]; };
    pack_a(dst, 0, n, 0, k, mr,
           [&src](index_t i, index_t kk) { return src(kk, i); });
    pack_b(dst + k * npan_a * mr, 0, k, n, nr, src);
    panels.push_back({dst, dst + k * npan_a * mr, k});
    dst += k * (npan_a * mr + npan_b * nr);
  }
  real_t* cp = out.data();
  const real_t* op = old != nullptr ? old->data() : nullptr;
  par::parallel_for(
      0, n, mr,
      [&](index_t i0, index_t i1) {
        for (index_t i = i0; i < i1; i += mr) {
          const index_t rows = std::min(mr, n - i);
          // Tiles from the one holding the diagonal rightwards. A diagonal
          // tile's lower elements are overwritten by the mirror below.
          for (index_t q = i / nr; q < npan_b; ++q) {
            const index_t j0 = q * nr, jw = std::min(nr, n - j0);
            real_t* c = cp + i * n + j0;
            const real_t* o = op != nullptr ? op + i * n + j0 : nullptr;
            if (rows == mr && jw == nr) {
              cfg.factor_tile(panels.data(), nranks, i / mr, q, inv_m, o, n,
                              decay, c, n);
              continue;
            }
            real_t prev[kMaxMR * kMaxNR] = {};
            if (o != nullptr)
              for (index_t r = 0; r < rows; ++r)
                std::copy_n(o + r * n, jw, prev + r * nr);
            edge_tile(nr, c, n, rows, {jw}, [&](real_t* t, index_t ld) {
              cfg.factor_tile(panels.data(), nranks, i / mr, q, inv_m,
                              o != nullptr ? prev : nullptr, nr, decay, t,
                              ld);
            });
          }
        }
        mirror_rows(cp, n, n, i0, i1);
      },
      "tensor/running_factor",
      audit::Footprint([&out](index_t i0, index_t i1, audit::WriteSet& ws) {
        ws.add_row_tail(out, i0, i1);
        ws.add_col_tail(out, i0, i1);
      }));
}

// ---- Vector helpers ----------------------------------------------------

void vmul(real_t* a, const real_t* b, index_t n) {
  switch (active()) {
#if defined(__x86_64__) || defined(__i386__)
    case Tier::kAvx512:
      avx512::vmul(a, b, n);
      return;
    case Tier::kAvx2:
      avx2::vmul(a, b, n);
      return;
#endif
#if defined(__aarch64__)
    case Tier::kNeon:
      vmul_neon(a, b, n);
      return;
#endif
    default:
      break;
  }
  for (index_t i = 0; i < n; ++i) a[i] *= b[i];
}

void vscale(real_t* dst, const real_t* src, real_t s, index_t n) {
  switch (active()) {
#if defined(__x86_64__) || defined(__i386__)
    case Tier::kAvx512:
      avx512::vscale(dst, src, s, n);
      return;
    case Tier::kAvx2:
      avx2::vscale(dst, src, s, n);
      return;
#endif
#if defined(__aarch64__)
    case Tier::kNeon:
      vscale_neon(dst, src, s, n);
      return;
#endif
    default:
      break;
  }
  for (index_t i = 0; i < n; ++i) dst[i] = s * src[i];
}

real_t vdot(const real_t* a, const real_t* b, index_t n) {
  switch (active()) {
#if defined(__x86_64__) || defined(__i386__)
    case Tier::kAvx512:
      return avx512::vdot(a, b, n);
    case Tier::kAvx2:
      return avx2::vdot(a, b, n);
#endif
#if defined(__aarch64__)
    case Tier::kNeon:
      return vdot_neon(a, b, n);
#endif
    default:
      break;
  }
  real_t acc = 0.0;
  for (index_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void chol_column(real_t* t, index_t ld, index_t c, index_t r0, index_t r1,
                 real_t inv) {
  switch (active()) {
#if defined(__x86_64__) || defined(__i386__)
    case Tier::kAvx512:
      avx512::chol_column(t, ld, c, r0, r1, inv);
      return;
    case Tier::kAvx2:
      avx2::chol_column(t, ld, c, r0, r1, inv);
      return;
#endif
    default:
      break;
  }
  real_t* col = t + c * ld;
  for (index_t r = r0; r < r1; ++r) {
    real_t v = col[r];
    for (index_t u = 0; u < c; ++u)
      v = std::fma(-t[u * ld + r], t[u * ld + c], v);
    col[r] = v * inv;
  }
}

NormScan norm_scan(const real_t* p, index_t n) {
  switch (active()) {
#if defined(__x86_64__) || defined(__i386__)
    case Tier::kAvx512:
      return avx512::norm_scan(p, n);
    case Tier::kAvx2:
      return avx2::norm_scan(p, n);
#endif
    default:
      break;
  }
  real_t sumsq = 0.0, flag = 0.0;
  for (index_t i = 0; i < n; ++i) {
    sumsq += p[i] * p[i];
    flag += p[i] - p[i];
  }
  return {sumsq, !std::isnan(flag)};
}

// ---- Convolution ----------------------------------------------------------

bool conv_direct(const ConvGeometry& g) {
  if (active() == Tier::kScalar || !tier_cfg(active()).conv_wgrad)
    return false;
  // Every tile row at least half a vector wide: the output rows, and the
  // rows of each gin phase the dgrad tiles.
  index_t narrowest = g.out_w();
  for (const Phase& px : conv_offsets(g, true).cols)
    narrowest = std::min(narrowest, px.n);
  return 2 * narrowest >= tier_cfg(active()).lanes;
}

PackedW pack_conv_forward_w(const Matrix& w_aug, const ConvGeometry& g) {
  const index_t c_out = w_aug.rows(), patch = w_aug.cols() - 1;
  PackedW pw{active(), c_out, patch, {}, {}, {}};
  if (conv_direct(g)) {
    // MR-interleaved panels of W_main, block k0 at k0 · ⌈c_out/MR⌉ · MR.
    const index_t mr = tier_cfg(active()).mr, npan = (c_out + mr - 1) / mr;
    pw.data.resize(static_cast<std::size_t>(patch * npan * mr));
    for (index_t k0 = 0; k0 < patch; k0 += kKC)
      pack_a(pw.data.data() + k0 * npan * mr, 0, c_out, k0,
             std::min(kKC, patch - k0), mr,
             [&w_aug](index_t o, index_t j) { return w_aug(o, j); });
  } else {
    pw = materialized_w(w_aug);
  }
  // Zero past c_out to a whole number of MR: an edge tile's pad rows start
  // from there.
  pw.bias.assign(static_cast<std::size_t>((c_out + kMaxMR - 1) / kMaxMR *
                                          kMaxMR),
                 0.0);
  for (index_t o = 0; o < c_out; ++o)
    pw.bias[static_cast<std::size_t>(o)] = w_aug(o, patch);
  return pw;
}

PackedW pack_conv_dgrad_w(const Matrix& w_aug, const ConvGeometry& g) {
  return conv_direct(g) ? pack_direct_dgrad_w(tier_cfg(active()), w_aug, g)
                        : materialized_w(w_aug);
}

void conv_forward(const PackedW& pw, const real_t* x, const ConvGeometry& g,
                  real_t* out_plane, real_t* capture_row) {
  check_packed_tier(pw);
  const TierCfg cfg = tier_cfg(active());
  const bool direct = pw.main.empty();  // the route conv_direct(g) packed for
  const ConvOffsets& offs = conv_offsets(g, true);
  const real_t* xp = direct || capture_row != nullptr
                         ? phase_planes(cfg, x, g, offs, cfg.lanes)
                         : nullptr;
  if (direct)
    direct_forward(cfg, pw, xp, offs, g, out_plane);
  else
    im2col_forward(pw, x, g, out_plane);
  if (capture_row != nullptr) conv_capture(xp, offs, g, cfg.lanes, capture_row);
}

void conv_wgrad(const Tensor4& gout, const Tensor4& x, const ConvGeometry& g,
                Matrix& gw, index_t o0, index_t o1) {
  if (conv_direct(g))
    direct_wgrad(tier_cfg(active()), gout, x, g, gw, o0, o1);
  else
    im2col_wgrad(gout, x, g, gw, o0, o1);
}

void conv_dgrad(const real_t* gout_plane, const PackedW& pw,
                const ConvGeometry& g, real_t* gin_plane) {
  check_packed_tier(pw);
  if (pw.main.empty())  // the route conv_direct(g) packed for
    direct_dgrad(tier_cfg(active()), gout_plane, pw, g, gin_plane);
  else
    im2col_dgrad(gout_plane, pw, g, gin_plane);
}

}  // namespace hylo::kern
