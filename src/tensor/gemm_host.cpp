#include "tensor/gemm_host.hpp"

#include <algorithm>
#include <cstdint>

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
// Every micro-kernel folds k ascending-k terms into @p acc, the tile's
// running sums (MR rows x NR columns, row-major, zeroed by the caller).
// The kernel shape is constrained by the register file: the accumulator
// tile plus one B panel row and the broadcast A value must fit, or the
// accumulators spill and performance falls off a cliff.

// Rows per register micro-tile, and rows per packed A panel (the parallel
// grain along M; a whole number of micro-tiles).  op(B) is packed whole.
constexpr std::size_t kMR = 4;
constexpr std::size_t kMC = 64;

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

/// The micro-kernel a launch runs and its panel width NR.
struct Micro {
  std::size_t nr;
  MicroFn fn;
};

/// 4x16 in ymm registers on AVX2, 4x8 portable elsewhere — including when
/// @p isa asks for AVX2 on a host without it.
Micro micro_for(compute::Isa isa) {
  if (isa == compute::Isa::kAvx2 && compute::isa() == compute::Isa::kAvx2) {
#if defined(SAGESIM_GEMM_AVX2)
    return {16, micro_avx2<kMR, 2>};
#endif
  }
  return {8, micro_portable<kMR, 8>};
}

// --- packing ---------------------------------------------------------------

/// Packs op(B) into NR-wide, p-major panels with zero padding past n.
/// After packing, the micro-kernel reads B with unit stride whether or not
/// tb was set.
void pack_b(const GemmSpec& s, std::size_t nr, float* dst) {
  for (std::size_t jp = 0; jp * nr < s.n; ++jp) {
    const std::size_t jb = jp * nr;
    const std::size_t jw = std::min(nr, s.n - jb);
    for (std::size_t p = 0; p < s.k; ++p, dst += nr) {
      for (std::size_t jj = 0; jj < jw; ++jj) dst[jj] = b_at(s, p, jb + jj);
      for (std::size_t jj = jw; jj < nr; ++jj) dst[jj] = 0.0f;
    }
  }
}

/// Packs rows [i0, i0 + mrows) of op(A) into MR-row micro-panels, p-major
/// with zero padding past m.
void pack_a_panel(const GemmSpec& s, std::size_t i0, std::size_t mrows,
                  float* dst) {
  for (std::size_t mi = 0; mi * kMR < mrows; ++mi) {
    const std::size_t ib = i0 + mi * kMR;
    const std::size_t iw = std::min(kMR, mrows - mi * kMR);
    for (std::size_t p = 0; p < s.k; ++p, dst += kMR) {
      for (std::size_t ii = 0; ii < iw; ++ii) dst[ii] = a_at(s, ib + ii, p);
      for (std::size_t ii = iw; ii < kMR; ++ii) dst[ii] = 0.0f;
    }
  }
}

// --- tile execution --------------------------------------------------------

/// Computes output rows [i0, i0 + mrows) from a packed A panel and all of
/// packed B.  Loop order: B panel outermost, then the A micro-panels — each
/// K x NR panel of packed B stays cache-hot while it is swept across every
/// micro-row.  The accumulator strip (one NR column of all micro-rows)
/// lives in pooled scratch, and each element is the naive ascending-k chain.
void run_panel(const GemmSpec& s, const Micro& mk, const float* apack,
               std::size_t i0, std::size_t mrows, const float* bpack) {
  const std::size_t nr = mk.nr;
  const std::size_t micro_rows = (mrows + kMR - 1) / kMR;
  const std::size_t npanels = (s.n + nr - 1) / nr;
  compute::Scratch acc_block(micro_rows * kMR * nr * sizeof(float));
  float* acc = acc_block.floats();

  for (std::size_t jp = 0; jp < npanels; ++jp) {
    const float* bp = bpack + jp * s.k * nr;
    std::fill(acc, acc + micro_rows * kMR * nr, 0.0f);
    for (std::size_t mi = 0; mi < micro_rows; ++mi)
      mk.fn(apack + mi * s.k * kMR, bp, s.k, acc + mi * kMR * nr);
    const std::size_t jb = jp * nr;
    const std::size_t jw = std::min(nr, s.n - jb);
    for (std::size_t mi = 0; mi < micro_rows; ++mi) {
      const std::size_t iw = std::min(kMR, mrows - mi * kMR);
      for (std::size_t ii = 0; ii < iw; ++ii)
        write_row(s, i0 + mi * kMR + ii, jb, jw,
                  acc + mi * kMR * nr + ii * nr);
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

void gemm_host_blocked(const GemmSpec& s, compute::Isa isa) {
  if (s.m == 0 || s.n == 0) return;
  const Micro mk = micro_for(isa);
  const std::size_t mpanels = (s.m + kMC - 1) / kMC;

  // Pooled packing scratch: op(B) whole, and one A panel per MC rows.  kMC
  // is a whole number of micro-tiles, so panel ib starts at ib * kMC * k.
  const std::size_t mrows_padded = (s.m + kMR - 1) / kMR * kMR;
  const std::size_t ncols_padded = (s.n + mk.nr - 1) / mk.nr * mk.nr;
  compute::Scratch apack(mrows_padded * s.k * sizeof(float));
  compute::Scratch bpack(ncols_padded * s.k * sizeof(float));
  float* ap = apack.floats();
  float* bp = bpack.floats();
  pack_b(s, mk.nr, bp);

  // One task per MC-row panel packs its A panel and sweeps it across every
  // B panel.  Partitioning is over M only — every output element belongs
  // to exactly one panel task — so the worker count cannot perturb result
  // bits.  Tiny shapes run the loop inline on the calling thread.
  const std::uint64_t grain =
      s.m * s.n * s.k < kSerialFlopFloor ? UINT64_MAX : 1;
  compute::executor().parallel_for(
      mpanels,
      [&](std::uint64_t ib) {
        const std::size_t i0 = ib * kMC;
        const std::size_t mrows = std::min(kMC, s.m - i0);
        float* a_src = ap + i0 * s.k;
        pack_a_panel(s, i0, mrows, a_src);
        run_panel(s, mk, a_src, i0, mrows, bp);
      },
      grain);
}

}  // namespace sagesim::tensor::ops::detail
