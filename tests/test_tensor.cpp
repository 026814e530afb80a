// Unit tests for the tensor module: container semantics and device-aware
// ops (host path and simulated-GPU path must agree bit-for-bit or to float
// tolerance).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "gpusim/device_manager.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace tensor = sagesim::tensor;
namespace ops = sagesim::tensor::ops;
namespace gpu = sagesim::gpu;
using sagesim::stats::Rng;

namespace {

struct DeviceFixture : ::testing::Test {
  gpu::DeviceManager dm{1, gpu::spec::test_tiny()};
  gpu::Device* dev{&dm.device(0)};
  Rng rng{99};
};

void expect_close(const tensor::Tensor& a, const tensor::Tensor& b,
                  float tol = 1e-4f) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_NEAR(a[i], b[i], tol) << "at " << i;
}

}  // namespace

// --- container ----------------------------------------------------------------

TEST(Tensor, ConstructionAndAccess) {
  tensor::Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  t.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(t[5], 5.0f);
  EXPECT_THROW(t.at(2, 0), std::out_of_range);
  EXPECT_THROW(tensor::Tensor(0, 3), std::invalid_argument);
}

TEST(Tensor, OfInitializerList) {
  const auto t = tensor::Tensor::of({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_FLOAT_EQ(t.at(2, 1), 6.0f);
  EXPECT_THROW(tensor::Tensor::of({{1, 2}, {3}}), std::invalid_argument);
}

TEST(Tensor, RowSpanAndArgmax) {
  const auto t = tensor::Tensor::of({{1, 9, 2}, {8, 1, 3}});
  EXPECT_EQ(t.argmax_row(0), 1u);
  EXPECT_EQ(t.argmax_row(1), 0u);
  EXPECT_EQ(t.row(0).size(), 3u);
  EXPECT_THROW(t.row(2), std::out_of_range);
}

TEST(Tensor, GlorotInitBounded) {
  Rng rng(5);
  tensor::Tensor t(100, 50);
  t.init_glorot(rng);
  const double limit = std::sqrt(6.0 / 150.0);
  float lo = 0.0f, hi = 0.0f;
  for (std::size_t i = 0; i < t.size(); ++i) {
    lo = std::min(lo, t[i]);
    hi = std::max(hi, t[i]);
  }
  EXPECT_GE(lo, -limit - 1e-6);
  EXPECT_LE(hi, limit + 1e-6);
  EXPECT_LT(std::fabs(t.sum() / static_cast<float>(t.size())), 0.01f);
}

TEST(Tensor, NormAndSum) {
  const auto t = tensor::Tensor::of({{3, 4}});
  EXPECT_FLOAT_EQ(t.norm(), 5.0f);
  EXPECT_FLOAT_EQ(t.sum(), 7.0f);
}

// --- gemm -----------------------------------------------------------------------

TEST_F(DeviceFixture, GemmMatchesHandResult) {
  const auto a = tensor::Tensor::of({{1, 2}, {3, 4}});
  const auto b = tensor::Tensor::of({{5, 6}, {7, 8}});
  tensor::Tensor c(2, 2);
  ops::gemm(dev, a, b, c);
  expect_close(c, tensor::Tensor::of({{19, 22}, {43, 50}}));
}

TEST_F(DeviceFixture, GemmDeviceMatchesHost) {
  tensor::Tensor a(17, 23), b(23, 9);
  a.init_uniform(rng, -1, 1);
  b.init_uniform(rng, -1, 1);
  tensor::Tensor c_dev(17, 9), c_host(17, 9);
  ops::gemm(dev, a, b, c_dev);
  ops::gemm(nullptr, a, b, c_host);
  expect_close(c_dev, c_host, 1e-5f);
}

TEST_F(DeviceFixture, GemmTransposeFlags) {
  tensor::Tensor a(4, 6), b(4, 5);  // a^T (6x4) @ b (4x5) = 6x5
  a.init_uniform(rng, -1, 1);
  b.init_uniform(rng, -1, 1);
  tensor::Tensor c(6, 5);
  ops::gemm(dev, a, b, c, /*ta=*/true);

  tensor::Tensor at(6, 4);
  ops::transpose(nullptr, a, at);
  tensor::Tensor expected(6, 5);
  ops::gemm(nullptr, at, b, expected);
  expect_close(c, expected, 1e-5f);

  // b^T path: a (4x6) @ bt^T where bt is 6x? ... use c2 = b (4x5)^T? cover
  // tb with matching dims: x (3x5) @ y^T where y is (2x5) -> 3x2.
  tensor::Tensor x(3, 5), y(2, 5), c2(3, 2);
  x.init_uniform(rng, -1, 1);
  y.init_uniform(rng, -1, 1);
  ops::gemm(dev, x, y, c2, false, /*tb=*/true);
  tensor::Tensor yt(5, 2), expected2(3, 2);
  ops::transpose(nullptr, y, yt);
  ops::gemm(nullptr, x, yt, expected2);
  expect_close(c2, expected2, 1e-5f);
}

TEST_F(DeviceFixture, GemmAccumulateAndAlpha) {
  const auto a = tensor::Tensor::of({{1, 0}, {0, 1}});
  const auto b = tensor::Tensor::of({{2, 0}, {0, 2}});
  tensor::Tensor c(2, 2);
  c.fill(1.0f);
  ops::gemm(dev, a, b, c, false, false, 0.5f, /*accumulate=*/true);
  expect_close(c, tensor::Tensor::of({{2, 1}, {1, 2}}));
}

TEST_F(DeviceFixture, GemmValidatesShapes) {
  tensor::Tensor a(2, 3), b(4, 2), c(2, 2);
  EXPECT_THROW(ops::gemm(dev, a, b, c), std::invalid_argument);
  tensor::Tensor b2(3, 2), c_bad(3, 3);
  EXPECT_THROW(ops::gemm(dev, a, b2, c_bad), std::invalid_argument);
}

TEST_F(DeviceFixture, GemmTiledMatchesNaive) {
  tensor::Tensor a(33, 47), b(47, 29);  // deliberately non-multiple of tile
  a.init_uniform(rng, -1, 1);
  b.init_uniform(rng, -1, 1);
  tensor::Tensor tiled(33, 29), naive(33, 29);
  ops::gemm_tiled(*dev, a, b, tiled);
  ops::gemm(nullptr, a, b, naive);
  expect_close(tiled, naive, 1e-4f);
}

TEST_F(DeviceFixture, GemmTiledHasHigherArithmeticIntensity) {
  tensor::Tensor a(128, 128), b(128, 128), c(128, 128);
  ops::gemm(dev, a, b, c);
  ops::gemm_tiled(*dev, a, b, c);
  const auto kernels = dm.timeline().snapshot(sagesim::prof::EventKind::kKernel);
  double naive_ai = 0, tiled_ai = 0;
  for (const auto& e : kernels) {
    const double ai = e.counters.at("flops") / e.counters.at("bytes");
    if (e.name == "gemm_naive") naive_ai = ai;
    if (e.name == "gemm_tiled") tiled_ai = ai;
  }
  EXPECT_GT(tiled_ai, 4.0 * naive_ai);
}

// --- elementwise ops ---------------------------------------------------------------

TEST_F(DeviceFixture, ReluAndBackward) {
  const auto x = tensor::Tensor::of({{-1, 2}, {3, -4}});
  tensor::Tensor y(2, 2);
  ops::relu(dev, x, y);
  expect_close(y, tensor::Tensor::of({{0, 2}, {3, 0}}));

  const auto dy = tensor::Tensor::of({{10, 10}, {10, 10}});
  tensor::Tensor dx(2, 2);
  ops::relu_backward(dev, x, dy, dx);
  expect_close(dx, tensor::Tensor::of({{0, 10}, {10, 0}}));
}

TEST_F(DeviceFixture, SoftmaxRowsSumToOneAndOrder) {
  const auto x = tensor::Tensor::of({{1, 2, 3}, {10, 10, 10}});
  tensor::Tensor y(2, 3);
  ops::softmax_rows(dev, x, y);
  for (std::size_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) sum += y.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
  EXPECT_GT(y.at(0, 2), y.at(0, 0));
  EXPECT_NEAR(y.at(1, 0), 1.0f / 3.0f, 1e-6f);
}

TEST_F(DeviceFixture, SoftmaxIsNumericallyStable) {
  const auto x = tensor::Tensor::of({{1000, 1001, 1002}});
  tensor::Tensor y(1, 3);
  ops::softmax_rows(dev, x, y);
  EXPECT_FALSE(std::isnan(y[0]));
  EXPECT_GT(y[2], y[0]);
}

TEST_F(DeviceFixture, AddBiasBroadcasts) {
  auto x = tensor::Tensor::of({{1, 1}, {2, 2}});
  const auto b = tensor::Tensor::of({{10, 20}});
  ops::add_bias(dev, x, b);
  expect_close(x, tensor::Tensor::of({{11, 21}, {12, 22}}));
  const auto bad = tensor::Tensor::of({{1, 2, 3}});
  EXPECT_THROW(ops::add_bias(dev, x, bad), std::invalid_argument);
}

TEST_F(DeviceFixture, BiasGradIsColumnSums) {
  const auto dy = tensor::Tensor::of({{1, 2}, {3, 4}, {5, 6}});
  tensor::Tensor db(1, 2);
  ops::bias_grad(dev, dy, db);
  expect_close(db, tensor::Tensor::of({{9, 12}}));
}

TEST_F(DeviceFixture, ElementwiseArithmetic) {
  const auto a = tensor::Tensor::of({{1, 2}});
  const auto b = tensor::Tensor::of({{3, 5}});
  tensor::Tensor out(1, 2);
  ops::add(dev, a, b, out);
  expect_close(out, tensor::Tensor::of({{4, 7}}));
  ops::sub(dev, a, b, out);
  expect_close(out, tensor::Tensor::of({{-2, -3}}));
  ops::hadamard(dev, a, b, out);
  expect_close(out, tensor::Tensor::of({{3, 10}}));
}

TEST_F(DeviceFixture, ScaleAndAxpy) {
  auto x = tensor::Tensor::of({{2, 4}});
  ops::scale(dev, x, 0.5f);
  expect_close(x, tensor::Tensor::of({{1, 2}}));
  auto y = tensor::Tensor::of({{10, 10}});
  ops::axpy(dev, 2.0f, x, y);
  expect_close(y, tensor::Tensor::of({{12, 14}}));
}

TEST_F(DeviceFixture, TransposeRoundTrip) {
  tensor::Tensor x(5, 7), xt(7, 5), back(5, 7);
  x.init_uniform(rng, -1, 1);
  ops::transpose(dev, x, xt);
  ops::transpose(dev, xt, back);
  expect_close(back, x, 0.0f);
  EXPECT_FLOAT_EQ(xt.at(3, 2), x.at(2, 3));
}

TEST_F(DeviceFixture, DropoutMaskAndScaling) {
  tensor::Tensor x(50, 50);
  x.fill(1.0f);
  tensor::Tensor out(50, 50), mask(50, 50);
  ops::dropout(dev, x, out, mask, 0.5f, rng);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (mask[i] > 0.0f) {
      EXPECT_FLOAT_EQ(out[i], 2.0f);  // inverted dropout scaling
      ++kept;
    } else {
      EXPECT_FLOAT_EQ(out[i], 0.0f);
    }
  }
  EXPECT_NEAR(static_cast<double>(kept) / 2500.0, 0.5, 0.06);
  EXPECT_THROW(ops::dropout(dev, x, out, mask, 1.0f, rng),
               std::invalid_argument);
}

// --- device-path timing side effects -------------------------------------------------

TEST_F(DeviceFixture, DeviceOpsRecordKernels) {
  tensor::Tensor a(32, 32), b(32, 32), c(32, 32);
  ops::gemm(dev, a, b, c);
  EXPECT_GT(dm.timeline().snapshot(sagesim::prof::EventKind::kKernel).size(),
            0u);
}

TEST(TensorHostOnly, HostPathRecordsNothing) {
  tensor::Tensor a(8, 8), b(8, 8), c(8, 8);
  ops::gemm(nullptr, a, b, c);  // must not crash without a device
  SUCCEED();
}

// --- parameterized sweeps -------------------------------------------------------

class GemmSizeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizeSweep, DeviceMatchesHostAtAllShapes) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n));
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  tensor::Tensor a(static_cast<std::size_t>(m), static_cast<std::size_t>(k));
  tensor::Tensor b(static_cast<std::size_t>(k), static_cast<std::size_t>(n));
  a.init_uniform(rng, -1, 1);
  b.init_uniform(rng, -1, 1);
  tensor::Tensor dev_out(static_cast<std::size_t>(m), static_cast<std::size_t>(n));
  tensor::Tensor host_out(static_cast<std::size_t>(m), static_cast<std::size_t>(n));
  ops::gemm(&dm.device(0), a, b, dev_out);
  ops::gemm(nullptr, a, b, host_out);
  for (std::size_t i = 0; i < dev_out.size(); ++i)
    ASSERT_NEAR(dev_out[i], host_out[i], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizeSweep,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 64, 1},
                      std::tuple{7, 13, 5}, std::tuple{16, 16, 16},
                      std::tuple{31, 17, 63}, std::tuple{64, 8, 64}));

class TiledGemmSweep : public ::testing::TestWithParam<int> {};

TEST_P(TiledGemmSweep, MatchesNaiveAtAwkwardSizes) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(GetParam());
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  tensor::Tensor a(n, n), b(n, n), tiled(n, n), naive(n, n);
  a.init_uniform(rng, -1, 1);
  b.init_uniform(rng, -1, 1);
  ops::gemm_tiled(dm.device(0), a, b, tiled);
  ops::gemm(nullptr, a, b, naive);
  for (std::size_t i = 0; i < tiled.size(); ++i)
    ASSERT_NEAR(tiled[i], naive[i], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TiledGemmSweep,
                         ::testing::Values(1, 15, 16, 17, 32, 33, 100));

// --- blocked-vs-naive engine conformance ------------------------------------
//
// The packed/blocked engine promises bit-identical results to the naive
// triple loop (same per-cell float accumulation order), which is what
// keeps checkpoint-resume bit-exact whichever engine computed a step.
// Every comparison below is exact float equality, not tolerance.

namespace {

/// The host GEMM spec of out = alpha * op(a) @ op(b) (+ out if accumulate).
ops::detail::GemmSpec gemm_spec(const tensor::Tensor& a,
                                const tensor::Tensor& b, tensor::Tensor& out,
                                bool ta = false, bool tb = false,
                                float alpha = 1.0f, bool accumulate = false) {
  ops::detail::GemmSpec s;
  s.a = a.data();
  s.b = b.data();
  s.c = out.data();
  s.m = out.rows();
  s.n = out.cols();
  s.k = ta ? a.rows() : a.cols();
  s.lda = a.cols();
  s.ldb = b.cols();
  s.ta = ta;
  s.tb = tb;
  s.alpha = alpha;
  s.accumulate = accumulate;
  return s;
}

tensor::Tensor transposed(const tensor::Tensor& a) {
  tensor::Tensor t(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) t.at(c, r) = a.at(r, c);
  return t;
}

void expect_bitwise(const tensor::Tensor& a, const tensor::Tensor& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << "at flat index " << i;
}

}  // namespace

class GemmBackendConformance
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmBackendConformance, BlockedMatchesNaiveBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 7919 + k * 131 + n));
  tensor::Tensor a(static_cast<std::size_t>(m), static_cast<std::size_t>(k));
  tensor::Tensor b(static_cast<std::size_t>(k), static_cast<std::size_t>(n));
  a.init_uniform(rng, -1, 1);
  b.init_uniform(rng, -1, 1);
  const tensor::Tensor at = transposed(a), bt = transposed(b);

  tensor::Tensor seed(static_cast<std::size_t>(m),
                      static_cast<std::size_t>(n));
  seed.init_uniform(rng, -1, 1);

  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      for (const bool accumulate : {false, true}) {
        for (const float alpha : {1.0f, 0.5f}) {
          const tensor::Tensor& lhs = ta ? at : a;
          const tensor::Tensor& rhs = tb ? bt : b;
          tensor::Tensor naive = seed, blocked = seed;
          ops::detail::gemm_host_naive(
              gemm_spec(lhs, rhs, naive, ta, tb, alpha, accumulate));
          ops::detail::gemm_host_blocked(
              gemm_spec(lhs, rhs, blocked, ta, tb, alpha, accumulate));
          for (std::size_t i = 0; i < naive.size(); ++i)
            ASSERT_EQ(naive[i], blocked[i])
                << "ta=" << ta << " tb=" << tb << " acc=" << accumulate
                << " alpha=" << alpha << " at " << i;
        }
      }
    }
  }
}

// Ragged shapes straddle every panel boundary: micro-tile remainders in m
// (MR=4), panel remainders in n for both the 8- and 16-wide layouts, and
// k values that are not multiples of anything.  The last four span several
// MC panels with MR tails of 1-3 rows, and put n on both sides of NR = 16
// and NR = 8, where one-panel GEMMs read A in place.
INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmBackendConformance,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 2},
                      std::tuple{4, 8, 8}, std::tuple{5, 9, 7},
                      std::tuple{17, 31, 13}, std::tuple{64, 64, 64},
                      std::tuple{65, 67, 66}, std::tuple{128, 33, 96},
                      std::tuple{130, 70, 16}, std::tuple{131, 257, 3},
                      std::tuple{66, 500, 8}, std::tuple{201, 33, 17}));

TEST(GemmFusedEpilogue, MatchesDecomposedPassesBitwise) {
  Rng rng(2024);
  // Both sides of ops::gemm's size crossover: 37x19x29 runs the blocked
  // engine, 7x5x6 (under 4096 multiply-adds) the naive loop.
  using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;
  for (const auto& [m, k, n] : {Shape{37, 19, 29}, Shape{7, 5, 6}}) {
    tensor::Tensor a(m, k), b(k, n), bias(1, n);
    a.init_uniform(rng, -1, 1);
    b.init_uniform(rng, -1, 1);
    bias.init_uniform(rng, -0.5f, 0.5f);

    // gemm_bias == gemm then add_bias.
    tensor::Tensor fused(m, n), ref(m, n);
    ops::gemm_bias(nullptr, a, b, bias, fused);
    ops::gemm(nullptr, a, b, ref);
    ops::add_bias(nullptr, ref, bias);
    expect_bitwise(fused, ref);

    // gemm_bias_relu == gemm then add_bias then relu, and the cached
    // pre-activation equals the biased GEMM.
    tensor::Tensor pre(m, n), out(m, n), ref_out(m, n);
    ops::gemm_bias_relu(nullptr, a, b, bias, pre, out);
    expect_bitwise(pre, ref);
    ops::relu(nullptr, ref, ref_out);
    expect_bitwise(out, ref_out);
  }
}

TEST(GemmFusedEpilogue, BlockedMatchesNaiveWithTransposes) {
  Rng rng(77);
  // n = 18 packs A; n = 16 and n = 3 are one B panel and read A in place.
  for (const std::size_t n : {18, 16, 3}) {
    const std::size_t m = 21, k = 34;
    tensor::Tensor a(m, k), b(k, n), bias(1, n);
    a.init_uniform(rng, -1, 1);
    b.init_uniform(rng, -1, 1);
    bias.init_uniform(rng, -0.5f, 0.5f);
    const tensor::Tensor at = transposed(a), bt = transposed(b);

    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        const tensor::Tensor& lhs = ta ? at : a;
        const tensor::Tensor& rhs = tb ? bt : b;
        tensor::Tensor pre_n(m, n), out_n(m, n), pre_b(m, n), out_b(m, n);
        const auto bias_relu = [&](tensor::Tensor& pre, tensor::Tensor& out) {
          ops::detail::GemmSpec s = gemm_spec(lhs, rhs, out, ta, tb);
          s.bias = bias.data();
          s.pre = pre.data();
          s.epilogue = ops::detail::Epilogue::kBiasRelu;
          return s;
        };
        ops::detail::gemm_host_naive(bias_relu(pre_n, out_n));
        ops::detail::gemm_host_blocked(bias_relu(pre_b, out_b));
        expect_bitwise(pre_n, pre_b);
        expect_bitwise(out_n, out_b);
      }
    }
  }
}

TEST(GemmDevicePath, MatchesHostBitwise) {
  // The simulated-device GEMM runs the same float ascending-k accumulation
  // and shared epilogue as the host engines, so it is bit-identical to
  // both — this is what lets lab code validate device kernels against host
  // references with exact comparison.
  Rng rng(31);
  const std::size_t m = 23, k = 41, n = 17;
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  tensor::Tensor a(m, k), b(k, n);
  a.init_uniform(rng, -1, 1);
  b.init_uniform(rng, -1, 1);
  tensor::Tensor dev_out(m, n), naive_out(m, n), blocked_out(m, n);
  ops::gemm(&dm.device(0), a, b, dev_out);
  ops::detail::gemm_host_naive(gemm_spec(a, b, naive_out));
  ops::detail::gemm_host_blocked(gemm_spec(a, b, blocked_out));
  expect_bitwise(dev_out, naive_out);
  expect_bitwise(dev_out, blocked_out);
}

// --- placement ------------------------------------------------------------------

TEST(TensorPlacement, DeviceRoundTripPreservesBytes) {
  namespace mem = sagesim::mem;
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  Rng rng(41);
  tensor::Tensor t(9, 7);
  t.init_uniform(rng, -2, 2);
  const tensor::Tensor before = t;  // deep copy

  ASSERT_TRUE(t.to_device(dm.device(0)).ok());
  EXPECT_EQ(t.placement(), mem::Placement::kDevice);
  EXPECT_EQ(t.device(), &dm.device(0));
  ASSERT_TRUE(t.to_host().ok());
  EXPECT_EQ(t.placement(), mem::Placement::kHost);
  for (std::size_t i = 0; i < t.size(); ++i)
    ASSERT_EQ(t[i], before[i]) << "at " << i;  // bit-identical round trip
  EXPECT_EQ(t.transfers().h2d_count, 1u);
  EXPECT_EQ(t.transfers().d2h_count, 1u);
  EXPECT_EQ(t.transfers().h2d_bytes, t.size() * sizeof(float));
}

TEST(TensorPlacement, HostCopySnapshotsDeviceResidentTensor) {
  namespace mem = sagesim::mem;
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  tensor::Tensor t(3, 3);
  t.fill(2.5f);
  ASSERT_TRUE(t.to_device(dm.device(0)).ok());
  const tensor::Tensor h = t.host_copy();
  EXPECT_EQ(h.placement(), mem::Placement::kHost);
  EXPECT_FLOAT_EQ(h.at(2, 2), 2.5f);
  EXPECT_EQ(t.placement(), mem::Placement::kDevice);  // source unmoved
}

TEST(TensorPlacement, OverCapacityToDeviceFailsAndHostCopyStaysValid) {
  namespace mem = sagesim::mem;
  // test_tiny models 64 MiB of device memory; this tensor needs ~80 MB.
  gpu::DeviceManager dm(1, gpu::spec::test_tiny());
  tensor::Tensor t(1024, 20000);
  t.fill(1.25f);

  const sagesim::Status s = t.to_device(dm.device(0));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), sagesim::ErrorCode::kResourceExhausted);

  // The failed transition must leave the tensor exactly as it was: host
  // placement, every element readable and intact, no transfers charged.
  EXPECT_EQ(t.placement(), mem::Placement::kHost);
  EXPECT_EQ(t.device(), nullptr);
  EXPECT_FLOAT_EQ(t.at(0, 0), 1.25f);
  EXPECT_FLOAT_EQ(t.at(1023, 19999), 1.25f);
  EXPECT_EQ(t.transfers().h2d_count, 0u);
  // And the tensor stays fully usable on the host.
  EXPECT_FLOAT_EQ(t.sum(), 1.25f * 1024 * 20000);
}
