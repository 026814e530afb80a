#include "tensor/gemm_host.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#if defined(__GNUC__) && defined(__x86_64__)
#define SAGESIM_GEMM_AVX2 1
#include <immintrin.h>
#endif

#include "compute/plan.hpp"

namespace sagesim::tensor::ops::detail {

namespace {

// Below this m*n*k the packing traffic rivals the multiply itself and the
// fork/join dominates: the whole GEMM runs inline on the calling thread.
constexpr std::size_t kSerialFlopFloor = 64 * 64 * 64;

inline float a_at(const GemmSpec& s, std::size_t i, std::size_t p) {
  return s.ta ? s.a[p * s.lda + i] : s.a[i * s.lda + p];
}

inline float b_at(const GemmSpec& s, std::size_t p, std::size_t j) {
  return s.tb ? s.b[j * s.ldb + p] : s.b[p * s.ldb + j];
}

// Shared by both backends so the epilogue math is one code path: the
// reduction result is transformed and stored with the exact same float
// operation sequence either way.  The epilogue is a template parameter so
// the switch is resolved once per row span and the jj loop vectorizes —
// cells are independent, so span order does not affect bit-identity.
template <Epilogue E>
void write_span(const GemmSpec& s, std::size_t i, std::size_t j0,
                std::size_t jw, const float* __restrict accrow) {
  float* __restrict c = s.c + i * s.n + j0;
  const float* __restrict bias =
      s.bias != nullptr ? s.bias + j0 : nullptr;
  float* __restrict pre =
      s.pre != nullptr ? s.pre + i * s.n + j0 : nullptr;
  for (std::size_t jj = 0; jj < jw; ++jj) {
    float r = s.alpha * accrow[jj];
    if (s.accumulate) r = c[jj] + r;
    if constexpr (E == Epilogue::kNone) {
      c[jj] = r;
    } else if constexpr (E == Epilogue::kBias) {
      c[jj] = r + bias[jj];
    } else {
      const float p = r + bias[jj];
      if (pre != nullptr) pre[jj] = p;
      c[jj] = p > 0.0f ? p : 0.0f;
    }
  }
}

inline void write_row(const GemmSpec& s, std::size_t i, std::size_t j0,
                      std::size_t jw, const float* accrow) {
  switch (s.epilogue) {
    case Epilogue::kNone:
      write_span<Epilogue::kNone>(s, i, j0, jw, accrow);
      break;
    case Epilogue::kBias:
      write_span<Epilogue::kBias>(s, i, j0, jw, accrow);
      break;
    case Epilogue::kBiasRelu:
      write_span<Epilogue::kBiasRelu>(s, i, j0, jw, accrow);
      break;
  }
}

inline void write_cell(const GemmSpec& s, std::size_t i, std::size_t j,
                       float acc) {
  write_row(s, i, j, 1, &acc);
}

// --- micro-kernels ---------------------------------------------------------
//
// Every micro-kernel continues a partial reduction: @p acc holds the tile's
// running sums (MR rows x NR columns, row-major), the kernel folds k more
// ascending-k terms into it, and stores it back.  The round trip through a
// float array is exact, which is what makes KC slabbing bit-identical to
// one unbroken k loop.  The kernel shape is constrained by the register
// file: the accumulator tile plus one B panel row and the broadcast A value
// must fit, or the accumulators spill and performance falls off a cliff.

using MicroFn = void (*)(const float* __restrict, const float* __restrict,
                         std::size_t, float* __restrict);

/// Portable MR x NR kernel.  The local copy (rather than accumulating in
/// `acc` directly) is what lets GCC scalar-replace the tile into registers
/// across the whole k loop.
template <std::size_t MR, std::size_t NR>
void micro_portable(const float* __restrict ap, const float* __restrict bp,
                    std::size_t k, float* __restrict acc) {
  float local[MR * NR];
  for (std::size_t i = 0; i < MR * NR; ++i) local[i] = acc[i];
  for (std::size_t p = 0; p < k; ++p, ap += MR, bp += NR) {
    for (std::size_t ii = 0; ii < MR; ++ii) {
      const float av = ap[ii];
      float* __restrict row = local + ii * NR;
      for (std::size_t jj = 0; jj < NR; ++jj) row[jj] += av * bp[jj];
    }
  }
  for (std::size_t i = 0; i < MR * NR; ++i) acc[i] = local[i];
}

#if defined(SAGESIM_GEMM_AVX2)

/// MR x (8*NG) kernel holding the accumulator tile in ymm registers.
/// Plain vmulps/vaddps (no FMA), ascending k per cell — bit-identical to
/// the portable and naive paths.
template <std::size_t MR, std::size_t NG>
__attribute__((target("avx2"))) void micro_avx2(const float* __restrict ap,
                                                const float* __restrict bp,
                                                std::size_t k,
                                                float* __restrict acc) {
  __m256 c[MR][NG];
  for (std::size_t ii = 0; ii < MR; ++ii)
    for (std::size_t g = 0; g < NG; ++g)
      c[ii][g] = _mm256_loadu_ps(acc + (ii * NG + g) * 8);
  for (std::size_t p = 0; p < k; ++p, ap += MR, bp += NG * 8) {
    __m256 b[NG];
    for (std::size_t g = 0; g < NG; ++g) b[g] = _mm256_loadu_ps(bp + g * 8);
    for (std::size_t ii = 0; ii < MR; ++ii) {
      const __m256 av = _mm256_set1_ps(ap[ii]);
      for (std::size_t g = 0; g < NG; ++g)
        c[ii][g] = _mm256_add_ps(c[ii][g], _mm256_mul_ps(av, b[g]));
    }
  }
  for (std::size_t ii = 0; ii < MR; ++ii)
    for (std::size_t g = 0; g < NG; ++g)
      _mm256_storeu_ps(acc + (ii * NG + g) * 8, c[ii][g]);
}

#endif  // SAGESIM_GEMM_AVX2

/// The runtime tiling actually executed: sanitized fields + the selected
/// micro-kernel.
struct Tiling {
  std::size_t mr, nr, mc, nc, kc;  ///< nc/kc of 0 mean full extent
  MicroFn fn;
};

/// Clamps a requested tiling to the supported micro-kernel set for the
/// runtime ISA, rounds the macro tiles to whole micro-panels, and caps them
/// at the matrix.  Any GemmTiling therefore executes *something* valid — a
/// stale or hostile tuning-cache entry can cost speed, never correctness
/// (an uncapped mc near SIZE_MAX would wrap the panel count to 0).
Tiling sanitize(const compute::GemmTiling& req, const GemmSpec& s) {
  Tiling t{};
#if defined(SAGESIM_GEMM_AVX2)
  if (compute::isa() == compute::Isa::kAvx2) {
    t.nr = req.nr == 8 ? 8 : 16;
    if (t.nr == 16)
      t.mr = req.mr == 6 ? 6 : 4;
    else
      t.mr = req.mr == 8 ? 8 : 4;
    if (t.nr == 16 && t.mr == 4) t.fn = micro_avx2<4, 2>;
    if (t.nr == 16 && t.mr == 6) t.fn = micro_avx2<6, 2>;
    if (t.nr == 8 && t.mr == 4) t.fn = micro_avx2<4, 1>;
    if (t.nr == 8 && t.mr == 8) t.fn = micro_portable<8, 8>;
  }
#endif
  if (t.fn == nullptr) {  // portable floor
    t.nr = 8;
    t.mr = req.mr == 8 ? 8 : 4;
    t.fn = t.mr == 8 ? micro_portable<8, 8> : micro_portable<4, 8>;
  }
  const std::size_t m_rounded = (s.m + t.mr - 1) / t.mr * t.mr;
  t.mc = std::min(std::max(t.mr, req.mc - req.mc % t.mr), m_rounded);
  t.nc = req.nc == 0 || req.nc >= s.n
             ? 0
             : std::max(t.nr, req.nc - req.nc % t.nr);
  t.kc = req.kc == 0 || req.kc >= s.k ? 0 : std::max<std::size_t>(8, req.kc);
  return t;
}

// --- packing ---------------------------------------------------------------

/// Packs columns [j0, j0 + jcols) of op(B) into NR-wide, p-major panels
/// with zero padding past the edge.  After packing, the micro-kernel reads
/// B with unit stride whether or not tb was set.
void pack_b_block(const GemmSpec& s, std::size_t j0, std::size_t jcols,
                  std::size_t nr, float* dst) {
  for (std::size_t jp = 0; jp * nr < jcols; ++jp) {
    const std::size_t jb = j0 + jp * nr;
    const std::size_t jw = std::min(nr, j0 + jcols - jb);
    for (std::size_t p = 0; p < s.k; ++p, dst += nr) {
      for (std::size_t jj = 0; jj < jw; ++jj) dst[jj] = b_at(s, p, jb + jj);
      for (std::size_t jj = jw; jj < nr; ++jj) dst[jj] = 0.0f;
    }
  }
}

/// Packs rows [i0, i0 + mrows) of op(A) into MR-row micro-panels, p-major
/// with zero padding past m.
void pack_a_panel(const GemmSpec& s, std::size_t i0, std::size_t mrows,
                  std::size_t mr, float* dst) {
  for (std::size_t mi = 0; mi * mr < mrows; ++mi) {
    const std::size_t ib = i0 + mi * mr;
    const std::size_t iw = std::min(mr, mrows - mi * mr);
    for (std::size_t p = 0; p < s.k; ++p, dst += mr) {
      for (std::size_t ii = 0; ii < iw; ++ii) dst[ii] = a_at(s, ib + ii, p);
      for (std::size_t ii = iw; ii < mr; ++ii) dst[ii] = 0.0f;
    }
  }
}

// --- tile execution --------------------------------------------------------

/// Computes the MC x NC output tile [i0, i0+mrows) x [j0, j0+jcols) from
/// packed panels.  Loop order: B panel outermost, then KC slabs, then the
/// A micro-panels — each KC x NR slab of packed B stays L1-hot while it is
/// swept across every micro-row.  The accumulator strip (one NR column of
/// all micro-rows) lives in pooled scratch and round-trips through float
/// between slabs, so the per-element reduction order is exactly the naive
/// ascending-k chain.
void run_tile(const GemmSpec& s, const Tiling& t, const float* apack,
              std::size_t i0, std::size_t mrows, const float* bpack,
              std::size_t j0, std::size_t jcols) {
  const std::size_t micro_rows = (mrows + t.mr - 1) / t.mr;
  const std::size_t npanels = (jcols + t.nr - 1) / t.nr;
  const std::size_t kc = t.kc == 0 ? s.k : t.kc;
  compute::Scratch acc_block(micro_rows * t.mr * t.nr * sizeof(float));
  float* acc = acc_block.floats();

  for (std::size_t jp = 0; jp < npanels; ++jp) {
    const float* bp = bpack + jp * s.k * t.nr;
    std::fill(acc, acc + micro_rows * t.mr * t.nr, 0.0f);
    for (std::size_t p0 = 0; p0 < s.k; p0 += kc) {
      const std::size_t pw = std::min(kc, s.k - p0);
      for (std::size_t mi = 0; mi < micro_rows; ++mi)
        t.fn(apack + (mi * s.k + p0) * t.mr, bp + p0 * t.nr, pw,
             acc + mi * t.mr * t.nr);
    }
    const std::size_t jb = j0 + jp * t.nr;
    const std::size_t jw = std::min(t.nr, j0 + jcols - jb);
    for (std::size_t mi = 0; mi < micro_rows; ++mi) {
      const std::size_t iw = std::min(t.mr, mrows - mi * t.mr);
      for (std::size_t ii = 0; ii < iw; ++ii)
        write_row(s, i0 + mi * t.mr + ii, jb, jw,
                  acc + mi * t.mr * t.nr + ii * t.nr);
    }
  }
}

}  // namespace

void gemm_host_naive(const GemmSpec& s) {
  for (std::size_t i = 0; i < s.m; ++i) {
    for (std::size_t j = 0; j < s.n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < s.k; ++p) acc += a_at(s, i, p) * b_at(s, p, j);
      write_cell(s, i, j, acc);
    }
  }
}

void gemm_host_blocked(const GemmSpec& s) {
  gemm_host_blocked_tiled(
      s, compute::Autotuner::shared().gemm_tiling(s.m, s.n, s.k));
}

void gemm_host_blocked_tiled(const GemmSpec& s, compute::GemmTiling req) {
  if (s.m == 0 || s.n == 0) return;
  const Tiling t = sanitize(req, s);

  const std::size_t mpanels = (s.m + t.mc - 1) / t.mc;
  const std::size_t nc = t.nc == 0 ? s.n : t.nc;
  const std::size_t nblocks = (s.n + nc - 1) / nc;

  // Shared packing scratch, pooled: one A panel per macro row, one B block
  // per macro column.  Offsets are in floats.
  std::vector<std::size_t> a_off(mpanels + 1, 0), b_off(nblocks + 1, 0);
  for (std::size_t ib = 0; ib < mpanels; ++ib) {
    const std::size_t mrows = std::min(t.mc, s.m - ib * t.mc);
    const std::size_t micro_rows = (mrows + t.mr - 1) / t.mr;
    a_off[ib + 1] = a_off[ib] + micro_rows * t.mr * s.k;
  }
  for (std::size_t jb = 0; jb < nblocks; ++jb) {
    const std::size_t jcols = std::min(nc, s.n - jb * nc);
    const std::size_t panels = (jcols + t.nr - 1) / t.nr;
    b_off[jb + 1] = b_off[jb] + panels * t.nr * s.k;
  }
  compute::Scratch apack(a_off[mpanels] * sizeof(float));
  compute::Scratch bpack(b_off[nblocks] * sizeof(float));
  float* ap = apack.floats();
  float* bp = bpack.floats();

  // Two fork/joins: pack every B block, then one task per MC-row panel
  // packs its A panel and sweeps it across every B block.  Partitioning is
  // over M only — every output element belongs to exactly one panel task —
  // so the worker count cannot perturb result bits.  Tiny shapes run both
  // loops inline on the calling thread.
  const std::uint64_t grain =
      s.m * s.n * s.k < kSerialFlopFloor ? UINT64_MAX : 1;
  gpu::Executor& ex = compute::executor();
  ex.parallel_for(
      nblocks,
      [&](std::uint64_t jb) {
        const std::size_t j0 = jb * nc;
        pack_b_block(s, j0, std::min(nc, s.n - j0), t.nr, bp + b_off[jb]);
      },
      grain);
  ex.parallel_for(
      mpanels,
      [&](std::uint64_t ib) {
        const std::size_t i0 = ib * t.mc;
        const std::size_t mrows = std::min(t.mc, s.m - i0);
        float* a_src = ap + a_off[ib];
        pack_a_panel(s, i0, mrows, t.mr, a_src);
        for (std::size_t jb = 0; jb < nblocks; ++jb) {
          const std::size_t j0 = jb * nc;
          run_tile(s, t, a_src, i0, mrows, bp + b_off[jb], j0,
                   std::min(nc, s.n - j0));
        }
      },
      grain);
}

}  // namespace sagesim::tensor::ops::detail
