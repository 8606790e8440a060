/**
 * @file
 * Differential tests of the kernel execution engine: every optimized
 * path (tiled GEMM, CSR and CSC SDDMM, fused masked softmax, SpMM,
 * fused sparse attention, parallel panels) must reproduce the scalar
 * golden kernels within a small ulp budget, across random masks
 * spanning sparsity 0.50-0.98, and produce bitwise identical results
 * across repeated parallel runs. The per-kernel cases call each
 * ISA's panels through its kernel table (isa::isaKernelTable); the
 * fused cases go through the KernelEngine.
 *
 * The whole differential suite is value-parameterized over every ISA
 * level compiled into this binary (isa::compiledIsaLevels()); levels
 * the host CPU cannot execute are skipped with a notice. The scalar
 * level additionally pins bitwise guarantees the SIMD levels cannot
 * make (FMA contracts the multiply-add rounding).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/rng.h"
#include "linalg/engine/engine.h"
#include "linalg/engine/isa/isa.h"
#include "linalg/engine/kernels_opt.h"
#include "linalg/engine/layout.h"
#include "linalg/engine/thread_pool.h"
#include "linalg/kernels.h"
#include "linalg/sparse_kernels.h"
#include "sparse/bitmask.h"

namespace vitcod::linalg {
namespace {

using engine::DispatchStats;
using engine::EngineConfig;
using engine::HeadLayout;
using engine::IsaLevel;
using engine::KernelEngine;
using engine::KernelTier;
using engine::ThreadPool;

/** ulp distance between two finite floats (huge when signs differ). */
uint64_t
ulpDiff(float a, float b)
{
    if (a == b)
        return 0;
    int32_t ia, ib;
    std::memcpy(&ia, &a, sizeof(ia));
    std::memcpy(&ib, &b, sizeof(ib));
    if ((ia < 0) != (ib < 0))
        return UINT64_MAX;
    return static_cast<uint64_t>(
        std::abs(static_cast<int64_t>(ia) - static_cast<int64_t>(ib)));
}

/**
 * Optimized kernels accumulate in independent float lanes (and the
 * SIMD levels contract with FMA and use a polynomial expf) where the
 * oracle accumulates in one double, so "equal" means: identical
 * bits, or within a ulp budget, or within a tiny absolute band
 * (values that cancel toward zero lose relative precision without
 * being wrong).
 */
void
expectUlpClose(float a, float b, const char *what, uint64_t max_ulps = 4096)
{
    if (std::abs(a - b) <= 1e-5f)
        return;
    EXPECT_LE(ulpDiff(a, b), max_ulps)
        << what << ": " << a << " vs " << b;
}

void
expectMatrixClose(const Matrix &a, const Matrix &b, const char *what)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t c = 0; c < a.cols(); ++c)
            expectUlpClose(a(r, c), b(r, c), what);
}

void
expectCsrClose(const sparse::Csr &a, const sparse::Csr &b,
               const char *what)
{
    ASSERT_EQ(a.rowPtr(), b.rowPtr()) << what;
    ASSERT_EQ(a.colIdx(), b.colIdx()) << what;
    ASSERT_EQ(a.values().size(), b.values().size()) << what;
    for (size_t i = 0; i < a.values().size(); ++i)
        expectUlpClose(a.values()[i], b.values()[i], what);
}

/** Random mask at the target sparsity; row 0 is forced empty to
 *  cover the fully-masked-row path. */
sparse::BitMask
randomMask(size_t n, double sparsity, Rng &rng)
{
    sparse::BitMask mask(n, n);
    const auto target = static_cast<size_t>(
        static_cast<double>(n * n) * (1.0 - sparsity));
    size_t nnz = 0;
    while (nnz < target) {
        const auto r = static_cast<size_t>(rng.uniformInt(n));
        const auto c = static_cast<size_t>(rng.uniformInt(n));
        if (r == 0 || mask.get(r, c))
            continue;
        mask.set(r, c, true);
        ++nnz;
    }
    return mask;
}

constexpr double kSparsities[] = {0.50, 0.70, 0.85, 0.90, 0.95, 0.98};

/** The per-ISA launch counter of @p st for @p level. */
uint64_t
isaLaunches(const DispatchStats &st, IsaLevel level)
{
    switch (level) {
    case IsaLevel::Scalar: return st.isaScalar;
    case IsaLevel::Avx2: return st.isaAvx2;
    case IsaLevel::Avx512: return st.isaAvx512;
    }
    return 0;
}

/**
 * Differential suite over one compiled ISA level. Skips (with a
 * notice in the test output) when the host CPU cannot execute the
 * level — e.g. the AVX-512 instantiation on an AVX2-only runner.
 */
class KernelEngineIsa : public ::testing::TestWithParam<IsaLevel>
{
  protected:
    void SetUp() override
    {
        if (!engine::isa::cpuSupports(engine::isa::hostCpuFeatures(),
                                      GetParam()))
            GTEST_SKIP() << "host CPU cannot execute "
                         << engine::isaName(GetParam());
    }

    /** Optimized-tier config pinned to the parameterized ISA. */
    EngineConfig
    optCfg() const
    {
        EngineConfig cfg;
        cfg.tier = KernelTier::Optimized;
        cfg.isa = GetParam();
        return cfg;
    }

    /** The parameterized ISA's panel table. */
    const engine::isa::IsaKernelTable &
    panels() const
    {
        return *engine::isa::isaKernelTable(GetParam());
    }
};

INSTANTIATE_TEST_SUITE_P(
    CompiledIsas, KernelEngineIsa,
    ::testing::ValuesIn(engine::isa::compiledIsaLevels().begin(),
                        engine::isa::compiledIsaLevels().end()),
    [](const ::testing::TestParamInfo<IsaLevel> &info) {
        return std::string(engine::isaName(info.param));
    });

TEST_P(KernelEngineIsa, SddmmPanelsMatchOracleAcrossSparsities)
{
    // Both traversals of every mask: the row-stationary CSR panel
    // and the K-stationary CSC panel scattered back to CSR order.
    const auto &kt = panels();
    Rng rng(7);
    const auto q = Matrix::randomNormal(196, 64, rng);
    const auto k = Matrix::randomNormal(196, 64, rng);
    for (double sp : kSparsities) {
        const auto mask = randomMask(196, sp, rng);
        const auto ref = sddmm(q, k, mask, 0.125f);
        const auto csc = sparse::Csc::fromMask(mask);

        std::vector<float> csr_vals(ref.nnz());
        kt.sddmmCsrPanel(q, k, ref.rowPtr(), ref.colIdx(),
                         csr_vals.data(), 0, 196, 0.125f);
        expectCsrClose(sparse::Csr::fromParts(196, 196, ref.rowPtr(),
                                              ref.colIdx(), csr_vals),
                       ref, "sddmm csr");

        std::vector<float> csc_vals(ref.nnz()), scattered;
        kt.sddmmCscPanel(q, k, csc.colPtr(), csc.rowIdx(),
                         csc_vals.data(), 0, 196, 0.125f);
        engine::cscValuesToCsr(196, csc.colPtr(), csc.rowIdx(),
                               csc_vals, ref.rowPtr(), scattered);
        expectCsrClose(sparse::Csr::fromParts(196, 196, ref.rowPtr(),
                                              ref.colIdx(), scattered),
                       ref, "sddmm csc");
    }
}

TEST_P(KernelEngineIsa, CscAndCsrLayoutsAgreeBitwise)
{
    // Both layouts of the same mask, built independently of
    // buildHeadLayout: same dot inner loop, different traversal
    // order, so the fused outputs must be bitwise identical per
    // ISA, not merely close.
    const KernelEngine opt(optCfg());
    Rng rng(11);
    const auto q = Matrix::randomNormal(128, 48, rng);
    const auto k = Matrix::randomNormal(128, 48, rng);
    const auto v = Matrix::randomNormal(128, 48, rng);
    for (double sp : {0.6, 0.9, 0.98}) {
        const auto mask = randomMask(128, sp, rng);
        const auto csr = sparse::Csr::fromMask(mask);
        const auto csc = sparse::Csc::fromMask(mask);
        HeadLayout with_csc{csr.rowPtr(), csr.colIdx(), csc.colPtr(),
                            csc.rowIdx(), true};
        HeadLayout csr_only = with_csc;
        csr_only.useCsc = false;

        Matrix a, b;
        opt.sparseAttentionInto(q, k, v, mask, with_csc.view(128, 128),
                                1.0f, a);
        opt.sparseAttentionInto(q, k, v, mask, csr_only.view(128, 128),
                                1.0f, b);
        EXPECT_TRUE(a == b) << "sparsity " << sp;
    }
    EXPECT_EQ(opt.stats().sddmmCsc, 3u);
    EXPECT_EQ(opt.stats().sddmmCsr, 3u);
    EXPECT_EQ(opt.stats().structureMisses, 0u);
}

TEST_P(KernelEngineIsa, SoftmaxPanelMatchesOracle)
{
    const auto &kt = panels();
    Rng rng(13);
    const auto q = Matrix::randomNormal(196, 64, rng);
    const auto k = Matrix::randomNormal(196, 64, rng);
    for (double sp : kSparsities) {
        const auto mask = randomMask(196, sp, rng);
        const auto s = sddmm(q, k, mask, 0.125f);
        const auto ref = maskedSoftmaxRows(s);
        std::vector<float> vals = s.values();
        kt.softmaxCsrPanel(s.rowPtr(), vals.data(), 0, 196);
        const auto got = sparse::Csr::fromParts(
            196, 196, s.rowPtr(), s.colIdx(), std::move(vals));
        expectCsrClose(got, ref, "maskedSoftmax");
        // Rows must still sum to 1.
        for (size_t r = 1; r < got.rows(); ++r) {
            if (got.rowNnz(r) == 0)
                continue;
            double sum = 0.0;
            for (uint32_t i = got.rowPtr()[r]; i < got.rowPtr()[r + 1];
                 ++i)
                sum += got.values()[i];
            EXPECT_NEAR(sum, 1.0, 1e-5);
        }
    }
}

TEST_P(KernelEngineIsa, SpmmPanelMatchesOracle)
{
    const auto &kt = panels();
    Rng rng(17);
    const auto q = Matrix::randomNormal(196, 64, rng);
    const auto k = Matrix::randomNormal(196, 64, rng);
    const auto v = Matrix::randomNormal(196, 64, rng);
    for (double sp : kSparsities) {
        const auto mask = randomMask(196, sp, rng);
        const auto s = maskedSoftmaxRows(sddmm(q, k, mask, 0.125f));
        Matrix got(196, 64);
        kt.spmmPanel(s.rowPtr(), s.colIdx(), s.values().data(), v, got,
                     0, 196);
        expectMatrixClose(got, spmm(s, v), "spmm");
    }
}

TEST_P(KernelEngineIsa, FusedSparseAttentionMatchesComposedOracle)
{
    const KernelEngine opt(optCfg());
    Rng rng(19);
    const auto q = Matrix::randomNormal(196, 64, rng);
    const auto k = Matrix::randomNormal(196, 64, rng);
    const auto v = Matrix::randomNormal(196, 64, rng);
    for (double sp : kSparsities) {
        const auto mask = randomMask(196, sp, rng);
        const auto ref = spmm(
            maskedSoftmaxRows(sddmm(q, k, mask, 0.125f)), v);
        expectMatrixClose(opt.sparseAttention(q, k, v, mask, 0.125f),
                          ref, "sparseAttention");
    }
}

TEST_P(KernelEngineIsa, GemmMatchesOracle)
{
    const KernelEngine opt(optCfg());
    Rng rng(23);
    const auto a = Matrix::randomNormal(197, 384, rng);
    const auto b = Matrix::randomNormal(384, 384, rng);
    const auto ref = gemm(a, b);
    const auto got = opt.gemm(a, b);
    if (GetParam() == IsaLevel::Scalar) {
        // Identical accumulation order (ascending k per output
        // element) without FMA contraction: the scalar blocked path
        // must be bit-for-bit the reference.
        EXPECT_TRUE(got == ref);
    } else {
        expectMatrixClose(got, ref, "gemm");
    }
}

TEST_P(KernelEngineIsa, GemmTransBMatchesOracle)
{
    const KernelEngine opt(optCfg());
    Rng rng(29);
    const auto a = Matrix::randomNormal(197, 64, rng);
    const auto b = Matrix::randomNormal(197, 64, rng);
    expectMatrixClose(opt.gemmTransB(a, b), gemmTransB(a, b),
                      "gemmTransB");
}

TEST_P(KernelEngineIsa, RaggedWidthsMatchOracle)
{
    // Odd feature dims exercise every SIMD tail path (masked loads
    // on AVX-512, scalar remainders elsewhere): 1 below/above the
    // 8- and 16-lane widths plus a sub-vector dim.
    const KernelEngine opt(optCfg());
    Rng rng(33);
    for (size_t d : {3u, 7u, 9u, 15u, 17u, 31u}) {
        const auto q = Matrix::randomNormal(64, d, rng);
        const auto k = Matrix::randomNormal(64, d, rng);
        const auto v = Matrix::randomNormal(64, d, rng);
        const auto mask = randomMask(64, 0.8, rng);
        const auto ref = spmm(
            maskedSoftmaxRows(sddmm(q, k, mask, 0.5f)), v);
        expectMatrixClose(opt.sparseAttention(q, k, v, mask, 0.5f),
                          ref, "ragged sparseAttention");
        expectMatrixClose(opt.gemmTransB(q, k), gemmTransB(q, k),
                          "ragged gemmTransB");
    }
}

TEST_P(KernelEngineIsa, ParallelRunsAreBitwiseDeterministic)
{
    ThreadPool pool(4);
    EngineConfig cfg = optCfg();
    cfg.rowPanel = 8;
    cfg.minParallelMacs = 1;
    const KernelEngine par(cfg, &pool);
    const KernelEngine ser(optCfg());
    Rng rng(31);
    const auto q = Matrix::randomNormal(196, 64, rng);
    const auto k = Matrix::randomNormal(196, 64, rng);
    const auto v = Matrix::randomNormal(196, 64, rng);
    const auto mask = randomMask(196, 0.9, rng);

    const Matrix serial = ser.sparseAttention(q, k, v, mask, 0.125f);
    for (int run = 0; run < 8; ++run) {
        const Matrix p = par.sparseAttention(q, k, v, mask, 0.125f);
        EXPECT_TRUE(p == serial) << "parallel run " << run;
    }
    EXPECT_GT(par.stats().parallelLaunches, 0u);
}

TEST_P(KernelEngineIsa, VariantAndLaunchCountersReportThisIsa)
{
    const KernelEngine opt(optCfg());
    EXPECT_EQ(opt.variant(),
              (engine::KernelVariant{KernelTier::Optimized,
                                     GetParam()}));
    Rng rng(37);
    const auto q = Matrix::randomNormal(128, 64, rng);
    const auto k = Matrix::randomNormal(128, 64, rng);
    const auto v = Matrix::randomNormal(128, 64, rng);
    const auto mask = randomMask(128, 0.9, rng);
    (void)opt.sparseAttention(q, k, v, mask, 0.125f);

    const DispatchStats st = opt.stats();
    // Fused attention = one SDDMM + one softmax + one SpMM launch,
    // all on the pinned ISA.
    EXPECT_EQ(isaLaunches(st, GetParam()), 3u);
    for (IsaLevel other : engine::isa::compiledIsaLevels()) {
        if (other != GetParam()) {
            EXPECT_EQ(isaLaunches(st, other), 0u)
                << engine::isaName(other);
        }
    }
}

TEST_P(KernelEngineIsa, EmptyAndFullMasksAreHandled)
{
    const KernelEngine opt(optCfg());
    Rng rng(43);
    const auto q = Matrix::randomNormal(16, 8, rng);
    const auto k = Matrix::randomNormal(16, 8, rng);
    const auto v = Matrix::randomNormal(16, 8, rng);

    sparse::BitMask empty(16, 16);
    const auto out_empty = opt.sparseAttention(q, k, v, empty, 1.0f);
    EXPECT_EQ(out_empty, Matrix(16, 8)); // all-zero

    sparse::BitMask full(16, 16);
    for (size_t r = 0; r < 16; ++r)
        for (size_t c = 0; c < 16; ++c)
            full.set(r, c, true);
    const auto ref = spmm(maskedSoftmaxRows(sddmm(q, k, full, 1.0f)), v);
    expectMatrixClose(opt.sparseAttention(q, k, v, full, 1.0f), ref,
                      "full mask");
}

TEST(KernelEngine, AutoTierDispatchesBySize)
{
    // ISA pinned to Scalar so the counter assertions below are
    // host-independent; the Auto-picks-highest-ISA behavior is
    // covered by test_isa_dispatch.cpp.
    EngineConfig cfg;
    cfg.isa = IsaLevel::Scalar;
    const KernelEngine eng(cfg);
    Rng rng(37);
    // Tiny: reference path.
    const auto a_small = Matrix::randomNormal(4, 4, rng);
    const auto b_small = Matrix::randomNormal(4, 4, rng);
    (void)eng.gemm(a_small, b_small);
    EXPECT_EQ(eng.stats().gemmOptimized, 0u);
    EXPECT_EQ(eng.stats().gemmReference, 1u);
    EXPECT_EQ(eng.stats().isaScalar, 0u); // reference launch: no ISA
    // Big: optimized path.
    const auto a_big = Matrix::randomNormal(196, 384, rng);
    const auto b_big = Matrix::randomNormal(384, 384, rng);
    (void)eng.gemm(a_big, b_big);
    EXPECT_EQ(eng.stats().gemmOptimized, 1u);
    EXPECT_EQ(eng.stats().isaScalar, 1u);

    eng.resetStats();
    EXPECT_EQ(eng.stats().gemmOptimized, 0u);
}

TEST(KernelEngine, ReferenceTierPinsTheOracle)
{
    EngineConfig cfg;
    cfg.tier = KernelTier::Reference;
    const KernelEngine ref(cfg);
    EXPECT_EQ(ref.variant(),
              (engine::KernelVariant{KernelTier::Reference,
                                     IsaLevel::Scalar}));
    Rng rng(41);
    const auto q = Matrix::randomNormal(64, 32, rng);
    const auto k = Matrix::randomNormal(64, 32, rng);
    const auto v = Matrix::randomNormal(64, 32, rng);
    const auto mask = randomMask(64, 0.9, rng);
    const Matrix oracle =
        spmm(maskedSoftmaxRows(sddmm(q, k, mask, 1.0f)), v);

    // Both overloads share the fused reference dispatch: bitwise
    // the oracle, no optimized launch, no layout built.
    const HeadLayout layout = engine::buildHeadLayout(mask);
    Matrix via_layout;
    ref.sparseAttentionInto(q, k, v, mask, layout.view(64, 64), 1.0f,
                            via_layout);
    EXPECT_TRUE(ref.sparseAttention(q, k, v, mask, 1.0f) == oracle);
    EXPECT_TRUE(via_layout == oracle);
    const DispatchStats st = ref.stats();
    EXPECT_EQ(st.sddmmReference, 2u);
    EXPECT_EQ(st.softmaxReference, 2u);
    EXPECT_EQ(st.spmmReference, 2u);
    EXPECT_EQ(st.sddmmCsr + st.sddmmCsc + st.softmaxOptimized +
                  st.spmmOptimized,
              0u);
    EXPECT_EQ(st.isaScalar + st.isaAvx2 + st.isaAvx512, 0u);
    EXPECT_EQ(st.structureMisses, 0u);
}

TEST(KernelEngine, IsaPinAtConstructionFixesTheTable)
{
    EngineConfig cfg;
    cfg.tier = KernelTier::Optimized;
    cfg.isa = IsaLevel::Scalar;
    const KernelEngine eng(cfg);
    EXPECT_EQ(eng.isaLevel(), IsaLevel::Scalar);

    Rng rng(47);
    const auto a = Matrix::randomNormal(64, 64, rng);
    const auto b = Matrix::randomNormal(64, 64, rng);
    (void)eng.gemm(a, b);
    EXPECT_EQ(eng.stats().isaScalar, 1u);

    // Pinning the host's best level is always satisfiable exactly.
    const IsaLevel best = engine::isa::resolveIsa(
        std::nullopt, engine::isa::hostCpuFeatures(), nullptr);
    cfg.isa = best;
    EXPECT_EQ(KernelEngine(cfg).variant().isa, best);
}

TEST(KernelEngine, MaskOnlyCallBuildsOneLayoutPerCall)
{
    // The engine keeps no per-mask state: every optimized mask-only
    // call builds its layout, a repeat of the same mask included,
    // and matches the layout overload bitwise.
    EngineConfig cfg;
    cfg.tier = KernelTier::Optimized;
    const KernelEngine eng(cfg);
    Rng rng(53);
    const auto q = Matrix::randomNormal(96, 32, rng);
    const auto k = Matrix::randomNormal(96, 32, rng);
    const auto v = Matrix::randomNormal(96, 32, rng);
    const auto mask = randomMask(96, 0.9, rng);

    const Matrix first = eng.sparseAttention(q, k, v, mask, 0.25f);
    EXPECT_EQ(eng.stats().structureMisses, 1u);
    const Matrix repeat = eng.sparseAttention(q, k, v, mask, 0.25f);
    EXPECT_EQ(eng.stats().structureMisses, 2u);
    EXPECT_TRUE(first == repeat);

    const HeadLayout layout = engine::buildHeadLayout(mask);
    Matrix via_layout;
    eng.sparseAttentionInto(q, k, v, mask, layout.view(96, 96), 0.25f,
                            via_layout);
    EXPECT_EQ(eng.stats().structureMisses, 2u);
    EXPECT_TRUE(via_layout == first);
}

TEST(KernelEngine, DispatchStatsDifferenceIsCounterWise)
{
    DispatchStats a, b;
    a.gemmOptimized = 5;
    a.isaAvx2 = 7;
    b.gemmOptimized = 2;
    b.isaAvx2 = 3;
    const DispatchStats d = a - b;
    EXPECT_EQ(d.gemmOptimized, 3u);
    EXPECT_EQ(d.isaAvx2, 4u);
    EXPECT_EQ(d.sddmmCsr, 0u);
}

} // namespace
} // namespace vitcod::linalg
