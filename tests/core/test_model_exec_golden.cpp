/**
 * @file
 * Golden-trace regression fixtures: a pinned tiny model is built
 * and executed under a pinned engine configuration, and the
 * resulting (layer 0, head 0) mask plus the whole ExecTrace are
 * compared against serialized goldens in tests/data/. Everything
 * structural — mask bits, shapes, per-head nnz / global-token
 * counts, MACs, engine dispatch counters — must match exactly;
 * wall times are ignored (structurallyEqual).
 *
 * Regenerate after an intentional change with
 *
 *     core_test_model_exec_golden --update-goldens
 *
 * which rewrites the files in the source tree (the build embeds
 * VITCOD_TEST_DATA_DIR) and then re-runs the comparison against
 * them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "core/model_exec/model_executor.h"
#include "core/pipeline.h"
#include "linalg/engine/thread_pool.h"
#include "sparse/mask_io.h"
#include "support/temp_path.h"

namespace vitcod::core::model_exec {
namespace {

bool g_update_goldens = false;

std::string
dataDir()
{
#ifdef VITCOD_TEST_DATA_DIR
    return std::string(VITCOD_TEST_DATA_DIR) + "/";
#else
    return "tests/data/";
#endif
}

constexpr const char *kMaskGolden = "model_exec_mask_l0h0.pbm";
constexpr const char *kTraceGolden = "model_exec_trace.golden";

/** The pinned fixture: model, plan, engine config, input. */
struct Fixture
{
    model::VitModelConfig model;
    core::ModelPlan plan;
    linalg::engine::ThreadPool pool{2};
    linalg::engine::KernelEngine engine;
    ExecTrace trace;

    Fixture()
        : model(makeModel()),
          plan(buildModelPlan(model, makePipelineConfig(0.9, false))),
          // ISA pinned to Scalar: the golden trace embeds per-ISA
          // dispatch counters, and the fixture must produce the
          // same ones on every host the suite runs on.
          engine({.tier = linalg::engine::KernelTier::Optimized,
                  .isa = linalg::engine::IsaLevel::Scalar,
                  .rowPanel = 8,
                  .minParallelMacs = 1},
                 &pool)
    {
        Rng rng(2024);
        ModelWeights w = ModelWeights::random(model, 0, 8, rng);
        ModelExecutor exec(&plan, std::move(w),
                           ExecutorConfig{.numClasses = 8}, &engine);
        std::vector<linalg::Matrix> inputs;
        for (size_t b = 0; b < 2; ++b)
            inputs.push_back(linalg::Matrix::randomNormal(
                32, model.stages[0].embedDim, rng));
        (void)exec.forwardBatch(inputs, &trace);
    }

    static model::VitModelConfig
    makeModel()
    {
        model::VitModelConfig m;
        m.name = "golden-tiny";
        m.stages = {{2, 32, 3, 8, 24, 2}};
        return m;
    }
};

TEST(ModelExecGolden, MaskMatchesCheckedInPbm)
{
    Fixture fx;
    const sparse::BitMask &mask = fx.plan.planOf(0, 0).mask;
    const std::string path = dataDir() + kMaskGolden;

    if (g_update_goldens)
        sparse::writePbmFile(path, mask, sparse::PbmFormat::Ascii);

    EXPECT_EQ(sparse::readPbmFile(path), mask)
        << "plan mask diverged from " << path
        << " (regenerate with --update-goldens if intentional)";
}

TEST(ModelExecGolden, MaskRoundTripsThroughMaskIo)
{
    Fixture fx;
    const sparse::BitMask &mask = fx.plan.planOf(0, 0).mask;
    // Full round-trip through both PBM flavors at a unique path.
    for (const auto fmt :
         {sparse::PbmFormat::Ascii, sparse::PbmFormat::Binary}) {
        const std::string path =
            test::uniqueTempPath("golden_mask.pbm");
        sparse::writePbmFile(path, mask, fmt);
        EXPECT_EQ(sparse::readPbmFile(path), mask);
        std::remove(path.c_str());
    }
}

TEST(ModelExecGolden, TraceMatchesCheckedInGolden)
{
    Fixture fx;
    const std::string path = dataDir() + kTraceGolden;

    if (g_update_goldens)
        fx.trace.writeFile(path);

    const ExecTrace golden = ExecTrace::readFile(path);
    std::string why;
    EXPECT_TRUE(structurallyEqual(fx.trace, golden, &why))
        << "trace diverged from " << path << ": " << why
        << " (regenerate with --update-goldens if intentional)";

    // Timings are machine-dependent but must be present and sane.
    EXPECT_GT(fx.trace.totalSeconds, 0.0);
    for (const LayerTrace &lt : fx.trace.layers)
        EXPECT_GE(lt.seconds(), 0.0);
}

TEST(ModelExecGolden, TraceSerializationRoundTrips)
{
    Fixture fx;
    std::stringstream ss;
    fx.trace.write(ss);
    const ExecTrace back = ExecTrace::read(ss);
    std::string why;
    EXPECT_TRUE(structurallyEqual(fx.trace, back, &why)) << why;
    EXPECT_EQ(back.model, fx.trace.model);
    EXPECT_DOUBLE_EQ(back.totalSeconds, fx.trace.totalSeconds);
}

TEST(ModelExecGolden, TraceWithoutHeadRecordsRoundTrips)
{
    // collectHeadTraces = false: per-head records absent while the
    // layer shape still says heads = 3 — the document must carry
    // its own head-record count to stay parseable.
    auto model = Fixture::makeModel();
    const auto plan =
        buildModelPlan(model, makePipelineConfig(0.9, false));
    Rng rng(5);
    const linalg::engine::KernelEngine eng(
        {.tier = linalg::engine::KernelTier::Optimized, .isa = std::nullopt});
    ModelExecutor exec(
        &plan, ModelWeights::random(model, 0, 8, rng),
        ExecutorConfig{.numClasses = 8, .collectHeadTraces = false},
        &eng);
    ExecTrace trace;
    (void)exec.forward(
        linalg::Matrix::randomNormal(32, model.stages[0].embedDim,
                                     rng),
        &trace);
    ASSERT_TRUE(trace.layers[0].headTraces.empty());

    std::stringstream ss;
    trace.write(ss);
    const ExecTrace back = ExecTrace::read(ss);
    std::string why;
    EXPECT_TRUE(structurallyEqual(trace, back, &why)) << why;
    EXPECT_EQ(back.layers[0].heads, 3u);
    EXPECT_TRUE(back.layers[0].headTraces.empty());
}

} // namespace
} // namespace vitcod::core::model_exec

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--update-goldens")
            vitcod::core::model_exec::g_update_goldens = true;
    return RUN_ALL_TESTS();
}
