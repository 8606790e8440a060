/**
 * @file
 * Tests of the Fig. 14 interface pipeline: the compiler's
 * instruction streams, and the structural identity between a stream
 * and the simulator's price of the schedule it was lowered from
 * (same DRAM bytes, same MACs).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "accel/compiler.h"
#include "core/pipeline.h"
#include "core/schedule/builder.h"

namespace vitcod::accel {
namespace {

core::ModelPlan
planFor(const model::VitModelConfig &m, double sparsity, bool ae)
{
    return core::buildModelPlan(m,
                                core::makePipelineConfig(sparsity, ae));
}

TEST(Compiler, EmitsPhasesPerLayer)
{
    Compiler comp;
    const auto plan = planFor(model::deitTiny(), 0.9, true);
    const Program prog = comp.compile(plan, /*e2e=*/false);
    // Three barriers (SDDMM, softmax, SpMM) per layer.
    EXPECT_EQ(prog.count(Opcode::Barrier), 3u * 12u);
    EXPECT_EQ(prog.count(Opcode::SddmmDense), 12u);
    EXPECT_EQ(prog.count(Opcode::SddmmSparse), 12u);
    EXPECT_EQ(prog.count(Opcode::Softmax), 12u);
    EXPECT_EQ(prog.count(Opcode::SpmmDense), 12u);
    EXPECT_EQ(prog.count(Opcode::Decode), 12u);
    EXPECT_EQ(prog.count(Opcode::Predict), 0u);
}

TEST(Compiler, EndToEndAddsDensePhases)
{
    Compiler comp;
    const auto plan = planFor(model::levit128(), 0.8, true);
    const Program prog = comp.compile(plan, /*e2e=*/true);
    EXPECT_EQ(prog.count(Opcode::Gemm), 3u * 12u + 1u); // +stem
    EXPECT_EQ(prog.count(Opcode::Encode), 12u);
    EXPECT_EQ(prog.count(Opcode::Elementwise), 12u);
    EXPECT_TRUE(prog.endToEnd);
}

TEST(Compiler, NoAeNoDecode)
{
    Compiler comp;
    const auto plan = planFor(model::deitTiny(), 0.9, false);
    const Program prog = comp.compile(plan, false);
    EXPECT_EQ(prog.count(Opcode::Decode), 0u);
}

TEST(Compiler, NlpModeEmitsPredict)
{
    ViTCoDConfig cfg;
    cfg.dynamicMaskPrediction = true;
    Compiler comp(cfg);
    const auto plan = planFor(model::bertBase(128), 0.9, true);
    const Program prog = comp.compile(plan, false);
    EXPECT_EQ(prog.count(Opcode::Predict), 12u);
}

TEST(Compiler, DisassemblyReadable)
{
    Compiler comp;
    const auto plan = planFor(model::deitTiny(), 0.9, true);
    const Program prog = comp.compile(plan, false);
    std::ostringstream oss;
    prog.disassemble(oss, 10);
    EXPECT_NE(oss.str().find("SDDMM.D"), std::string::npos);
    EXPECT_NE(oss.str().find("truncated"), std::string::npos);
}

TEST(Compiler, DeterministicPrograms)
{
    Compiler comp;
    const auto plan = planFor(model::deitSmall(), 0.9, true);
    const Program a = comp.compile(plan, false);
    const Program b = comp.compile(plan, false);
    ASSERT_EQ(a.code.size(), b.code.size());
    for (size_t i = 0; i < a.code.size(); ++i) {
        EXPECT_EQ(a.code[i].op, b.code[i].op);
        EXPECT_EQ(a.code[i].arg0, b.code[i].arg0);
    }
}

/**
 * The stream carries exactly what the simulator prices from the same
 * schedule, in either mode: LD.IDX + LD.TILE bytes are the DRAM
 * reads, ST.TILE bytes the writes, and the MAC operands the MACs.
 */
void
expectStreamCarriesPrice(const ViTCoDConfig &cfg,
                         const core::ModelPlan &plan, bool e2e)
{
    const core::schedule::ModelSchedule sched =
        core::schedule::ScheduleBuilder(
            {.hw = scheduleParams(cfg), .buildLayouts = false})
            .build(plan, e2e);
    const Program::Totals t = Compiler(cfg).compile(sched).totals();
    const ViTCoDAccelerator sim(cfg);
    for (const sim::SimMode mode :
         {sim::SimMode::Analytic, sim::SimMode::Pipelined}) {
        const RunStats priced = sim.runSchedule(sched, mode);
        EXPECT_EQ(t.dramRead, priced.dramRead);
        EXPECT_EQ(t.dramWrite, priced.dramWrite);
        EXPECT_EQ(t.macs, priced.macs);
    }
}

class StreamIdentity
    : public ::testing::TestWithParam<std::tuple<std::string, double>>
{};

TEST_P(StreamIdentity, AttentionStreamCarriesPricedTrafficAndMacs)
{
    const auto [name, sparsity] = GetParam();
    expectStreamCarriesPrice(
        {}, planFor(model::modelByName(name), sparsity, true), false);
}

TEST_P(StreamIdentity, EndToEndStreamCarriesPricedTrafficAndMacs)
{
    const auto [name, sparsity] = GetParam();
    expectStreamCarriesPrice(
        {}, planFor(model::modelByName(name), sparsity, true), true);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSparsities, StreamIdentity,
    ::testing::Values(std::make_tuple("DeiT-Tiny", 0.9),
                      std::make_tuple("DeiT-Base", 0.9),
                      std::make_tuple("DeiT-Small", 0.6),
                      std::make_tuple("LeViT-128", 0.8),
                      std::make_tuple("LeViT-192", 0.8),
                      std::make_tuple("StridedTrans.", 0.9)));

TEST(StreamIdentity, NlpPredictionMacsArePriced)
{
    ViTCoDConfig cfg;
    cfg.dynamicMaskPrediction = true;
    const auto plan = planFor(model::bertBase(384), 0.9, true);
    // The prediction pass's MACs count toward macs, and so toward
    // energy and utilization, not only its cycles.
    EXPECT_EQ(ViTCoDAccelerator(cfg).runAttention(plan).macs,
              653891712u);
    expectStreamCarriesPrice(cfg, plan, false);
}

TEST(CompilerDeath, MonolithicUnsupported)
{
    ViTCoDConfig cfg;
    cfg.twoPronged = false;
    EXPECT_DEATH(Compiler{cfg}, "two-pronged");
}

TEST(EngineHelpers, AllocationSumsToTotal)
{
    const auto a = allocateEngineLines({3.0, 1.0}, 64);
    EXPECT_EQ(a[0] + a[1], 64u);
    EXPECT_GT(a[0], a[1]);
    const auto b = allocateEngineLines({0.0, 5.0}, 64);
    EXPECT_EQ(b[0], 0u);
    EXPECT_EQ(b[1], 64u);
}

TEST(EngineHelpers, AllocationFloorsNonZeroWork)
{
    const auto a = allocateEngineLines({1.0, 10000.0}, 64);
    EXPECT_GE(a[0], 1u);
    EXPECT_EQ(a[0] + a[1], 64u);
}

} // namespace
} // namespace vitcod::accel
