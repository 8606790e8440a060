/**
 * @file
 * The ModelExec serving backend runs whole-model forward passes:
 * nonzero wall time, full-model MAC accounting (projections + MLP +
 * classifier, not just attention), a resident per-plan executor
 * whose arena never grows in steady state, one fresh execution per
 * batch, and end-to-end traffic through a WorkerPool-backed server.
 */

#include <gtest/gtest.h>

#include "serve/backend.h"
#include "serve/plan_cache.h"
#include "serve/server.h"

namespace vitcod::serve {
namespace {

PlanKey
tinyKey()
{
    PlanKey k;
    k.model = "DeiT-Tiny";
    k.sparsity = 0.9;
    return k;
}

TEST(ModelExecServeBackend, RunsFullForwardAndAccountsModelMacs)
{
    PlanCache cache;
    const auto cp = cache.get(tinyKey());

    auto backend = makeServeBackend("ModelExec", accel::ViTCoDConfig{});
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->name(), "ModelExec");

    const auto r = backend->runBatch(*cp, 1);
    EXPECT_GT(r.stats.seconds, 0.0);
    EXPECT_TRUE(r.switched); // first batch loads weights

    // Whole-model MACs dwarf the attention-only count: QKV/output
    // projections and the MLP dominate DeiT.
    MacOps attn_only = 0;
    for (const auto &hp : cp->plan.heads) {
        const auto dk = cp->plan.model.stages.front().headDim;
        attn_only +=
            static_cast<MacOps>(hp.plan.mask.nnz()) * dk * 2;
    }
    EXPECT_GT(r.stats.macs, attn_only * 10);
    EXPECT_EQ(r.stats.model, "DeiT-Tiny");
}

TEST(ModelExecServeBackend, KeepsResidentExecutorAndTraces)
{
    PlanCache cache;
    const auto cp = cache.get(tinyKey());
    ModelExecServeBackend backend;

    (void)backend.runBatch(*cp, 1);
    const auto &trace = backend.lastTrace();
    EXPECT_EQ(trace.model, "DeiT-Tiny");
    ASSERT_EQ(trace.layers.size(), cp->plan.model.totalLayers());
    for (const auto &lt : trace.layers)
        EXPECT_EQ(lt.heads, 3u);

    // Second batch reuses the resident executor, which runs from
    // the plan's compiled Schedule IR: the engine builds no layout
    // — the masks were scanned exactly once, when the PlanCache
    // built the schedule.
    (void)backend.runBatch(*cp, 2);
    EXPECT_EQ(backend.lastTrace().dispatch.structureMisses, 0u);
    EXPECT_GT(backend.lastTrace().dispatch.sddmmCsr +
                  backend.lastTrace().dispatch.sddmmCsc,
              0u);
}

TEST(ModelExecServeBackend, EveryBatchExecutesOnce)
{
    PlanCache cache;
    const auto cp = cache.get(tinyKey());
    const linalg::engine::KernelEngine eng;
    ModelExecServeBackend backend(&eng);

    // Real execution is never memoized: each batch runs one fresh
    // forward (no more: n back-to-back requests scale it) and is
    // charged n times that forward's own measurement.
    (void)backend.runBatch(*cp, 1);
    const uint64_t one = eng.stats().sddmmCsr + eng.stats().sddmmCsc;
    ASSERT_GT(one, 0u);
    const auto four = backend.runBatch(*cp, 4);
    EXPECT_EQ(eng.stats().sddmmCsr + eng.stats().sddmmCsc, 2 * one);
    EXPECT_FALSE(four.switched);
    EXPECT_GT(four.perRequestSeconds, 0.0);
    EXPECT_DOUBLE_EQ(four.stats.seconds, four.perRequestSeconds * 4);
}

TEST(ModelExecServeBackend, ServesTrafficInMixedPool)
{
    ServerConfig cfg;
    cfg.backends = {"ModelExec", "ViTCoD"};
    InferenceServer server(cfg);
    server.warmup({tinyKey()});
    for (int i = 0; i < 8; ++i)
        server.submit(tinyKey());
    server.drain();
    const auto snap = server.snapshot();
    EXPECT_EQ(snap.completed, 8u);
    server.shutdown();
}

} // namespace
} // namespace vitcod::serve
