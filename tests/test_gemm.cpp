// Blocked-GEMM core and parallel-kernel determinism tests.
//
// The contract under test: the cache-blocked packed GEMM (and every kernel
// re-expressed on top of it or parallelized over the pool) produces output
// bits that are independent of thread count, and — for the GEMM itself —
// identical to the retained reference kernel, because both accumulate
// fl(a*b) into a double per output element in ascending-k order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "src/hw/cache_model.h"
#include "src/ir/graph.h"
#include "src/ir/ops.h"
#include "src/runtime/codegen/dispatch.h"
#include "src/runtime/gemm.h"
#include "src/runtime/kernels.h"

namespace gf::rt {
namespace {

conc::ThreadPool& pool() {
  static conc::ThreadPool p(4);
  return p;
}

std::vector<float> random_vec(std::size_t n, std::uint32_t seed) {
  // xorshift32: deterministic values in [-1, 1) without <random> overhead.
  std::vector<float> v(n);
  std::uint32_t s = seed * 2654435761u + 1u;
  for (std::size_t i = 0; i < n; ++i) {
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    v[i] = static_cast<float>(s % 20011u) / 10005.5f - 1.0f;
  }
  return v;
}

std::vector<std::uint32_t> bits_of(const std::vector<float>& v) {
  std::vector<std::uint32_t> b(v.size());
  std::memcpy(b.data(), v.data(), v.size() * sizeof(float));
  return b;
}

DenseTensor tensor_from(std::vector<std::int64_t> shape, const std::vector<float>& data) {
  DenseTensor t(std::move(shape), ir::DataType::kFloat32);
  for (std::size_t i = 0; i < data.size(); ++i)
    t.f(static_cast<std::int64_t>(i)) = data[i];
  return t;
}

struct GemmCase {
  std::int64_t batch, m, n, k;
  bool trans_a, trans_b;
  bool broadcast_b;  // rank-3 A with a shared rank-2 B
};

void run_case(const GemmCase& gc) {
  SCOPED_TRACE(testing::Message()
               << "batch=" << gc.batch << " m=" << gc.m << " n=" << gc.n
               << " k=" << gc.k << " ta=" << gc.trans_a << " tb=" << gc.trans_b
               << " bcast=" << gc.broadcast_b);
  const auto a_elems = static_cast<std::size_t>(gc.batch * gc.m * gc.k);
  const auto b_batch = gc.broadcast_b ? 1 : gc.batch;
  const auto b_elems = static_cast<std::size_t>(b_batch * gc.k * gc.n);
  const auto c_elems = static_cast<std::size_t>(gc.batch * gc.m * gc.n);
  const std::vector<float> a = random_vec(a_elems, 11);
  const std::vector<float> b = random_vec(b_elems, 23);
  std::vector<float> c_blocked(c_elems, -7.0f), c_ref(c_elems, 7.0f);

  const std::int64_t a_stride = gc.m * gc.k;
  const std::int64_t b_stride = gc.broadcast_b ? 0 : gc.k * gc.n;
  const std::int64_t c_stride = gc.m * gc.n;
  blocked_gemm(a.data(), b.data(), c_blocked.data(), gc.batch, gc.m, gc.n, gc.k,
               gc.trans_a, gc.trans_b, a_stride, b_stride, c_stride,
               default_gemm_tiling(), pool());
  reference_gemm(a.data(), b.data(), c_ref.data(), gc.batch, gc.m, gc.n, gc.k,
                 gc.trans_a, gc.trans_b, a_stride, b_stride, c_stride, pool());
  EXPECT_EQ(bits_of(c_blocked), bits_of(c_ref));
}

// With GF_SIMD unset the blocked GEMM runs the widest compiled micro-kernel
// and its register tile; the scalar 4x8 tile (set_forced_isa(kScalar), or
// GF_SIMD=scalar) stays available as the bitwise oracle.
TEST(GemmDefaultIsa, DefaultTileIsBestIsaAndMatchesScalarTileBitwise) {
  codegen::set_forced_isa(std::nullopt);
  const char* env = std::getenv("GF_SIMD");
  const bool unset = env == nullptr || env[0] == '\0';
  const hw::SimdIsa expected = unset ? hw::best_simd_isa() : codegen::active_isa();
  EXPECT_EQ(codegen::gemm_isa(), expected);
  const hw::RegisterTile tile = hw::register_tile_rule(expected);
  EXPECT_EQ(default_gemm_tiling().mr, tile.mr);
  EXPECT_EQ(default_gemm_tiling().nr, tile.nr);

  const GemmCase cases[] = {
      {1, 13, 29, 17, false, false, false},  // odd: ragged in every dimension
      {1, 8, 64, 64, false, true, false},    // transposed B
      {1, 64, 64, 8, true, false, false},    // transposed A
      {1, 37, 45, 301, true, true, false},   // both, k spans several KC blocks
      {3, 7, 19, 11, false, false, true},    // rank-2 B broadcast over a batch
      {2, 5, 33, 9, true, true, false},      // batched, both transposed
  };
  for (const GemmCase& gc : cases) {
    SCOPED_TRACE(testing::Message() << "batch=" << gc.batch << " m=" << gc.m
                                    << " n=" << gc.n << " k=" << gc.k);
    const std::vector<float> a = random_vec(static_cast<std::size_t>(gc.batch * gc.m * gc.k), 5);
    const std::vector<float> b = random_vec(
        static_cast<std::size_t>((gc.broadcast_b ? 1 : gc.batch) * gc.k * gc.n), 9);
    const auto c_elems = static_cast<std::size_t>(gc.batch * gc.m * gc.n);
    auto run = [&](std::vector<float>& c) {
      blocked_gemm(a.data(), b.data(), c.data(), gc.batch, gc.m, gc.n, gc.k, gc.trans_a,
                   gc.trans_b, gc.m * gc.k, gc.broadcast_b ? 0 : gc.k * gc.n, gc.m * gc.n,
                   default_gemm_tiling(), pool());
    };
    std::vector<float> c_default(c_elems, 3.0f), c_scalar(c_elems, -3.0f);
    run(c_default);
    codegen::set_forced_isa(hw::SimdIsa::kScalar);
    EXPECT_EQ(default_gemm_tiling().mr, kGemmMr);
    EXPECT_EQ(default_gemm_tiling().nr, kGemmNr);
    run(c_scalar);
    codegen::set_forced_isa(std::nullopt);
    EXPECT_EQ(bits_of(c_default), bits_of(c_scalar));
  }
}

TEST(BlockedGemm, MatchesReferenceBitwiseRank2) {
  // Odd, non-tile-multiple shapes so every edge path (partial micro-tile,
  // partial KC block) is exercised in all four transpose combinations.
  for (bool ta : {false, true})
    for (bool tb : {false, true}) run_case({1, 67, 35, 129, ta, tb, false});
}

TEST(BlockedGemm, MatchesReferenceBitwiseBatched) {
  for (bool ta : {false, true})
    for (bool tb : {false, true}) run_case({3, 17, 29, 41, ta, tb, false});
}

TEST(BlockedGemm, MatchesReferenceBitwiseBroadcastB) {
  for (bool ta : {false, true})
    for (bool tb : {false, true}) run_case({4, 13, 19, 23, ta, tb, true});
}

TEST(BlockedGemm, MatchesReferenceBitwiseTinyAndAlignedShapes) {
  run_case({1, 1, 1, 1, false, false, false});
  run_case({1, 4, 8, 16, false, false, false});     // exact micro-tiles
  run_case({1, 128, 128, 128, false, true, false});  // exact-ish macro fit
  run_case({2, 5, 3, 2, true, false, false});
}

TEST(BlockedGemm, BitwiseIdenticalAcrossThreadCounts) {
  const std::int64_t m = 151, n = 93, k = 77;
  const std::vector<float> a = random_vec(static_cast<std::size_t>(m * k), 5);
  const std::vector<float> b = random_vec(static_cast<std::size_t>(k * n), 9);
  std::vector<std::vector<std::uint32_t>> runs;
  for (int threads : {1, 2, 8}) {
    conc::ThreadPool tp(threads);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    blocked_gemm(a.data(), b.data(), c.data(), 1, m, n, k, false, false, 0, 0, 0,
                 default_gemm_tiling(), tp);
    runs.push_back(bits_of(c));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(GemmTiling, FollowsPaperTileRule) {
  // T = floor(sqrt(cache / (3 * dtype))) — the same rule as
  // hw::tiled_matmul_bytes; MC/NC round down to micro-tile multiples.
  const GemmTiling t = select_gemm_tiling(256.0 * 1024.0, 4);
  const auto edge = static_cast<std::int64_t>(std::floor(std::sqrt(256.0 * 1024.0 / 12.0)));
  EXPECT_EQ(t.kc, edge);
  EXPECT_EQ(t.mc, edge / kGemmMr * kGemmMr);
  EXPECT_EQ(t.nc, edge / kGemmNr * kGemmNr);
  EXPECT_GT(t.mc, 0);
  EXPECT_GT(t.nc, 0);

  // Degenerate cache still yields a usable (micro-tile) blocking.
  const GemmTiling tiny = select_gemm_tiling(16.0, 4);
  EXPECT_EQ(tiny.mc, kGemmMr);
  EXPECT_EQ(tiny.nc, kGemmNr);
  EXPECT_GE(tiny.kc, 1);
}

TEST(GemmTraffic, GrowsOncePanelsExceedModeledCache) {
  // With a fixed tiling, measured packed traffic per FLOP should grow once
  // the matrices outgrow a single macro-tile — the qualitative trend
  // hw::tiled_matmul_bytes predicts (ceil(N/T) re-reads of A, etc.).
  const GemmTiling small = select_gemm_tiling(8.0 * 1024.0, 4);  // T ~= 26
  auto traffic_per_elem = [&](std::int64_t edge) {
    const auto elems = static_cast<std::size_t>(edge * edge);
    const std::vector<float> a = random_vec(elems, 3);
    const std::vector<float> b = random_vec(elems, 7);
    std::vector<float> c(elems, 0.0f);
    GemmTraffic t;
    blocked_gemm(a.data(), b.data(), c.data(), 1, edge, edge, edge, false, false,
                 0, 0, 0, small, pool(), &t);
    // Normalize by the compulsory volume (3 matrices) to get a re-read factor.
    return t.total() / (3.0 * static_cast<double>(elems) * sizeof(float));
  };
  const double in_cache = traffic_per_elem(24);    // fits one macro-tile
  const double out_of_cache = traffic_per_elem(96);  // 4x4 tile grid
  EXPECT_GT(out_of_cache, 1.5 * in_cache);

  // And the model agrees about the direction of the trend.
  const double model_small = hw::tiled_matmul_bytes(24, 24, 24, 1, 4, 8.0 * 1024.0) /
                             (3.0 * 24.0 * 24.0 * 4.0);
  const double model_large = hw::tiled_matmul_bytes(96, 96, 96, 1, 4, 8.0 * 1024.0) /
                             (3.0 * 96.0 * 96.0 * 4.0);
  EXPECT_GT(model_large, model_small);
}

// --- KernelStats byte accounting pinned to the IR's algorithmic bytes ------

double ir_matmul_bytes(std::vector<std::int64_t> a_shape,
                       std::vector<std::int64_t> b_shape) {
  ir::Graph g("bytes");
  std::vector<sym::Expr> ae, be;
  for (auto d : a_shape) ae.emplace_back(static_cast<double>(d));
  for (auto d : b_shape) be.emplace_back(static_cast<double>(d));
  ir::Tensor* a = g.add_input("a", ir::TensorShape(ae));
  ir::Tensor* b = g.add_weight("b", ir::TensorShape(be));
  ir::Tensor* y = ir::matmul(g, "mm", a, b);
  return y->producer()->bytes_accessed().eval({});
}

void expect_matmul_stats_match(std::vector<std::int64_t> a_shape,
                               std::vector<std::int64_t> b_shape,
                               std::vector<std::int64_t> out_shape) {
  DenseTensor a(a_shape, ir::DataType::kFloat32);
  DenseTensor b(b_shape, ir::DataType::kFloat32);
  DenseTensor out(out_shape, ir::DataType::kFloat32);
  KernelStats stats;
  matmul(a, b, out, false, false, pool(), stats);
  EXPECT_DOUBLE_EQ(stats.bytes, ir_matmul_bytes(a_shape, b_shape));
}

TEST(MatmulStats, BytesMatchSymbolicRank2) {
  expect_matmul_stats_match({6, 10}, {10, 14}, {6, 14});
}

TEST(MatmulStats, BytesMatchSymbolicBatched) {
  expect_matmul_stats_match({3, 6, 10}, {3, 10, 14}, {3, 6, 14});
}

TEST(MatmulStats, BytesMatchSymbolicBroadcastB) {
  // The broadcast case the accounting documents: shared rank-2 B under a
  // rank-3 A is charged once, not once per batch.
  expect_matmul_stats_match({5, 6, 10}, {10, 14}, {5, 6, 14});
  DenseTensor a({5, 6, 10}, ir::DataType::kFloat32);
  DenseTensor b({10, 14}, ir::DataType::kFloat32);
  DenseTensor out({5, 6, 14}, ir::DataType::kFloat32);
  KernelStats stats;
  matmul(a, b, out, false, false, pool(), stats);
  const double dtype = 4.0;
  EXPECT_DOUBLE_EQ(stats.bytes, dtype * (5 * 6 * 10 + 10 * 14 + 5 * 6 * 14));
}

// --- alignment -------------------------------------------------------------

TEST(Alignment, DenseTensorBuffersAre64ByteAligned) {
  for (std::int64_t n : {1, 3, 17, 1000}) {
    DenseTensor f({n}, ir::DataType::kFloat32);
    DenseTensor i({n}, ir::DataType::kInt32);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(f.fdata()) % kTensorAlignment, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(i.idata()) % kTensorAlignment, 0u);
  }
}

TEST(Alignment, AlignedVectorIsAligned) {
  AlignedVector<float> v(7);
  AlignedVector<double> d(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kTensorAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % kTensorAlignment, 0u);
}

// --- conv lowering vs reference -------------------------------------------

TEST(ConvBlocked, ForwardMatchesReferenceBitwise) {
  // im2col orders taps (kh, kw, c) ascending with explicit zeros for
  // padding — the identical accumulation chain to the reference loops, so
  // the forward lowering is bit-exact.
  const std::vector<std::int64_t> in_shape{2, 9, 7, 3}, f_shape{3, 3, 3, 5};
  DenseTensor in = tensor_from(in_shape, random_vec(2 * 9 * 7 * 3, 31));
  DenseTensor f = tensor_from(f_shape, random_vec(3 * 3 * 3 * 5, 37));
  DenseTensor out({2, 9, 7, 5}, ir::DataType::kFloat32);
  DenseTensor out_ref({2, 9, 7, 5}, ir::DataType::kFloat32);
  KernelStats s1, s2;
  set_kernel_backend(KernelBackend::kBlocked);
  conv2d(in, f, out, 1, pool(), s1);
  conv2d_reference(in, f, out_ref, 1, s2);
  for (std::int64_t i = 0; i < out.numel(); ++i)
    ASSERT_EQ(bits_of({out.f(i)}), bits_of({out_ref.f(i)})) << i;
  EXPECT_DOUBLE_EQ(s1.flops, s2.flops);
  EXPECT_DOUBLE_EQ(s1.bytes, s2.bytes);
}

TEST(ConvBlocked, GradientsMatchReferenceNumerically) {
  // The GEMM-lowered gradients accumulate in a different (associativity)
  // order than the reference scatter loops, so equality is numeric.
  const std::vector<std::int64_t> in_shape{1, 6, 6, 2}, f_shape{3, 3, 2, 4};
  DenseTensor in = tensor_from(in_shape, random_vec(6 * 6 * 2, 41));
  DenseTensor f = tensor_from(f_shape, random_vec(3 * 3 * 2 * 4, 43));
  DenseTensor dy = tensor_from({1, 6, 6, 4}, random_vec(6 * 6 * 4, 47));

  DenseTensor dx({1, 6, 6, 2}, ir::DataType::kFloat32);
  DenseTensor dx_ref({1, 6, 6, 2}, ir::DataType::kFloat32);
  DenseTensor df({3, 3, 2, 4}, ir::DataType::kFloat32);
  DenseTensor df_ref({3, 3, 2, 4}, ir::DataType::kFloat32);
  KernelStats s;
  set_kernel_backend(KernelBackend::kBlocked);
  conv2d_grad_input(dy, f, dx, 1, pool(), s);
  conv2d_grad_input_reference(dy, f, dx_ref, 1, s);
  conv2d_grad_filter(in, dy, df, 1, pool(), s);
  conv2d_grad_filter_reference(in, dy, df_ref, 1, s);
  for (std::int64_t i = 0; i < dx.numel(); ++i)
    EXPECT_NEAR(dx.f(i), dx_ref.f(i), 1e-4f) << i;
  for (std::int64_t i = 0; i < df.numel(); ++i)
    EXPECT_NEAR(df.f(i), df_ref.f(i), 1e-3f) << i;
}

TEST(ConvBlocked, GradientsBitwiseIdenticalAcrossThreadCounts) {
  DenseTensor in = tensor_from({2, 5, 5, 3}, random_vec(2 * 5 * 5 * 3, 53));
  DenseTensor f = tensor_from({3, 3, 3, 4}, random_vec(3 * 3 * 3 * 4, 59));
  DenseTensor dy = tensor_from({2, 5, 5, 4}, random_vec(2 * 5 * 5 * 4, 61));
  std::vector<std::vector<std::uint32_t>> dx_runs, df_runs;
  for (int threads : {1, 2, 8}) {
    conc::ThreadPool tp(threads);
    DenseTensor dx({2, 5, 5, 3}, ir::DataType::kFloat32);
    DenseTensor df({3, 3, 3, 4}, ir::DataType::kFloat32);
    KernelStats s;
    conv2d_grad_input(dy, f, dx, 1, tp, s);
    conv2d_grad_filter(in, dy, df, 1, tp, s);
    std::vector<float> dxv(dx.fdata(), dx.fdata() + dx.numel());
    std::vector<float> dfv(df.fdata(), df.fdata() + df.numel());
    dx_runs.push_back(bits_of(dxv));
    df_runs.push_back(bits_of(dfv));
  }
  EXPECT_EQ(dx_runs[0], dx_runs[1]);
  EXPECT_EQ(dx_runs[0], dx_runs[2]);
  EXPECT_EQ(df_runs[0], df_runs[1]);
  EXPECT_EQ(df_runs[0], df_runs[2]);
}

// --- parallelized serial kernels stay deterministic ------------------------

TEST(ParallelKernels, EmbeddingSoftmaxReduceBitwiseAcrossThreadCounts) {
  const std::int64_t rows = 200, vocab = 37, embed = 50;
  DenseTensor table = tensor_from({vocab, embed},
                                  random_vec(static_cast<std::size_t>(vocab * embed), 71));
  DenseTensor ids({rows}, ir::DataType::kInt32);
  for (std::int64_t r = 0; r < rows; ++r) ids.i32(r) = static_cast<std::int32_t>((r * 7) % vocab);
  DenseTensor dy = tensor_from({rows, embed},
                               random_vec(static_cast<std::size_t>(rows * embed), 73));
  DenseTensor logits = tensor_from({rows, embed},
                                   random_vec(static_cast<std::size_t>(rows * embed), 79));

  std::vector<std::vector<std::uint32_t>> runs;
  for (int threads : {1, 8}) {
    conc::ThreadPool tp(threads);
    KernelStats s;
    DenseTensor looked({rows, embed}, ir::DataType::kFloat32);
    DenseTensor dtable({vocab, embed}, ir::DataType::kFloat32);
    DenseTensor soft({rows, embed}, ir::DataType::kFloat32);
    DenseTensor red({embed}, ir::DataType::kFloat32);
    embedding_lookup(table, ids, looked, tp, s);
    embedding_grad(ids, dy, dtable, tp, s);
    softmax(logits, soft, tp, s);
    reduce(ir::ReduceKind::kMean, dy, red, tp, s);
    std::vector<float> all;
    all.insert(all.end(), looked.fdata(), looked.fdata() + looked.numel());
    all.insert(all.end(), dtable.fdata(), dtable.fdata() + dtable.numel());
    all.insert(all.end(), soft.fdata(), soft.fdata() + soft.numel());
    all.insert(all.end(), red.fdata(), red.fdata() + red.numel());
    runs.push_back(bits_of(all));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(KernelBackendSwitch, ReferenceBackendRunsSeedKernels) {
  DenseTensor in = tensor_from({1, 4, 4, 2}, random_vec(4 * 4 * 2, 83));
  DenseTensor f = tensor_from({3, 3, 2, 3}, random_vec(3 * 3 * 2 * 3, 89));
  DenseTensor out_b({1, 4, 4, 3}, ir::DataType::kFloat32);
  DenseTensor out_r({1, 4, 4, 3}, ir::DataType::kFloat32);
  KernelStats s;
  set_kernel_backend(KernelBackend::kBlocked);
  conv2d(in, f, out_b, 1, pool(), s);
  set_kernel_backend(KernelBackend::kReference);
  conv2d(in, f, out_r, 1, pool(), s);
  set_kernel_backend(KernelBackend::kBlocked);
  for (std::int64_t i = 0; i < out_b.numel(); ++i)
    EXPECT_EQ(bits_of({out_b.f(i)}), bits_of({out_r.f(i)})) << i;
}

}  // namespace
}  // namespace gf::rt
