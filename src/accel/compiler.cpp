#include "compiler.h"

#include <ostream>

#include "common/logging.h"

namespace vitcod::accel {

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::ConfigLines:
        return "CFG.LINES";
      case Opcode::SetAccumMode:
        return "CFG.ACCUM";
      case Opcode::LoadIndex:
        return "LD.IDX";
      case Opcode::LoadTile:
        return "LD.TILE";
      case Opcode::GatherRows:
        return "LD.GATHER";
      case Opcode::Decode:
        return "AE.DEC";
      case Opcode::Encode:
        return "AE.ENC";
      case Opcode::SddmmDense:
        return "SDDMM.D";
      case Opcode::SddmmSparse:
        return "SDDMM.S";
      case Opcode::Softmax:
        return "SOFTMAX";
      case Opcode::SpmmDense:
        return "SPMM.D";
      case Opcode::SpmmSparse:
        return "SPMM.S";
      case Opcode::Gemm:
        return "GEMM";
      case Opcode::Elementwise:
        return "ELWISE";
      case Opcode::Predict:
        return "PREDICT";
      case Opcode::StoreTile:
        return "ST.TILE";
      case Opcode::Barrier:
        return "BARRIER";
      default:
        panic("bad opcode");
    }
}

size_t
Program::count(Opcode op) const
{
    size_t n = 0;
    for (const auto &i : code)
        n += i.op == op;
    return n;
}

Program::Totals
Program::totals() const
{
    Totals t;
    for (const auto &i : code) {
        switch (i.op) {
          case Opcode::LoadIndex:
          case Opcode::LoadTile:
            t.dramRead += i.arg0;
            break;
          case Opcode::StoreTile:
            t.dramWrite += i.arg0;
            break;
          case Opcode::Decode:
          case Opcode::Encode:
          case Opcode::SddmmDense:
          case Opcode::SpmmDense:
          case Opcode::Gemm:
          case Opcode::Predict:
            t.macs += i.arg0;
            break;
          case Opcode::SddmmSparse:
          case Opcode::SpmmSparse:
            t.macs += i.arg1;
            break;
          default:
            break;
        }
    }
    return t;
}

void
Program::disassemble(std::ostream &os, size_t max_instrs) const
{
    os << "; program for " << modelName
       << (endToEnd ? " (end-to-end)" : " (attention)") << ", "
       << code.size() << " instructions\n";
    size_t shown = 0;
    for (const auto &i : code) {
        if (max_instrs && shown++ >= max_instrs) {
            os << "; ... truncated\n";
            break;
        }
        os << "L" << i.layer << "\t" << opcodeName(i.op) << "\t"
           << i.arg0;
        if (i.arg1)
            os << ", " << i.arg1;
        os << '\n';
    }
}

Compiler::Compiler(ViTCoDConfig cfg) : cfg_(std::move(cfg))
{
    VITCOD_ASSERT(cfg_.twoPronged,
                  "the compiler targets the two-pronged architecture");
}

void
Compiler::emitAttentionLayer(
    Program &prog, const core::schedule::LayerSchedule &ls) const
{
    const auto L = static_cast<uint32_t>(ls.layer);

    // ---- Optional dynamic-mask prediction (NLP mode), a serial
    // preprocessing phase. Gate on the overhead too: a zero-cost
    // prediction pass (predictionCostFactor = 0) still pays its
    // fixed 2n-cycle latency, and the simulator prices it.
    if (ls.predictMacs > 0 || ls.predictOverhead > 0)
        prog.code.push_back({Opcode::Predict, L, ls.predictMacs,
                             ls.predictOverhead});

    // ---- Phase 1: SDDMM.
    prog.code.push_back({Opcode::ConfigLines, L, ls.sddmmDenserLines,
                         ls.sddmmSparserLines});
    prog.code.push_back({Opcode::SetAccumMode, L, 0, 0});
    prog.code.push_back({Opcode::LoadIndex, L, ls.idxBytes, 0});
    prog.code.push_back({Opcode::LoadTile, L, ls.qkLoadBytes, 0});
    if (ls.gatherMisses > 0)
        prog.code.push_back({Opcode::GatherRows, L, ls.gatherMisses,
                             ls.gatherRowBytes});
    if (ls.aeOn)
        prog.code.push_back({Opcode::Decode, L, ls.decodeMacs, 0});
    // Denser-engine ops carry both currencies: arg0 the dense-
    // region workload the engine streams, arg1 the mask-nonzero
    // subset a value-level execution computes.
    MacOps denser_exec = 0;
    for (const core::schedule::HeadSchedule &hs : ls.heads)
        denser_exec +=
            static_cast<MacOps>(hs.denserNnz) * hs.headDim;
    prog.code.push_back(
        {Opcode::SddmmDense, L, ls.denserSddmmMacs, denser_exec});
    prog.code.push_back({Opcode::SddmmSparse, L,
                         ls.sddmmSparserCycles,
                         ls.sparserSddmmMacs});
    prog.code.push_back({Opcode::Barrier, L, 0, 0});

    // ---- Phase 2: softmax over stored scores.
    prog.code.push_back({Opcode::Softmax, L, ls.softmaxElems, 0});
    prog.code.push_back({Opcode::Barrier, L, 0, 0});

    // ---- Phase 3: SpMM (output stationary; reconfiguration).
    prog.code.push_back({Opcode::ConfigLines, L, ls.spmmDenserLines,
                         ls.spmmSparserLines});
    prog.code.push_back({Opcode::SetAccumMode, L, 1, 0});
    prog.code.push_back({Opcode::LoadTile, L, ls.vLoadBytes, 0});
    prog.code.push_back(
        {Opcode::SpmmDense, L, ls.denserSpmmMacs, denser_exec});
    prog.code.push_back({Opcode::SpmmSparse, L, ls.spmmSparserCycles,
                         ls.sparserSpmmMacs});
    prog.code.push_back(
        {Opcode::StoreTile, L, ls.outStoreBytes, 0});
    prog.code.push_back({Opcode::Barrier, L, 0, 0});
}

void
Compiler::emitDenseBlock(
    Program &prog, const core::schedule::LayerSchedule &ls) const
{
    const auto L = static_cast<uint32_t>(ls.layer);
    const core::schedule::DenseBlockSchedule &db = ls.dense;

    // Q/K/V projection (+ encoder overlapped).
    prog.code.push_back({Opcode::LoadTile, L, db.projLoadBytes, 0});
    prog.code.push_back({Opcode::Gemm, L, db.projMacs, 0});
    if (ls.aeOn)
        prog.code.push_back({Opcode::Encode, L, db.encodeMacs, 0});
    prog.code.push_back({Opcode::StoreTile, L, db.projStoreBytes, 0});
    prog.code.push_back({Opcode::Barrier, L, 0, 0});

    // Output projection.
    prog.code.push_back({Opcode::LoadTile, L, db.outProjBytes, 0});
    prog.code.push_back({Opcode::Gemm, L, db.outProjMacs, 0});
    prog.code.push_back({Opcode::Barrier, L, 0, 0});

    // MLP.
    prog.code.push_back({Opcode::LoadTile, L, db.mlpBytes, 0});
    prog.code.push_back({Opcode::Gemm, L, db.mlpMacs, 0});
    prog.code.push_back({Opcode::Barrier, L, 0, 0});

    // LayerNorms.
    prog.code.push_back({Opcode::Elementwise, L, db.lnElems, 0});
    prog.code.push_back({Opcode::Barrier, L, 0, 0});
}

Program
Compiler::compile(const core::schedule::ModelSchedule &sched) const
{
    VITCOD_ASSERT(sched.params.twoPronged,
                  "the compiler targets the two-pronged architecture");
    Program prog;
    prog.modelName = sched.modelName;
    prog.endToEnd = sched.endToEnd;
    for (const core::schedule::LayerSchedule &ls : sched.layers) {
        emitAttentionLayer(prog, ls);
        if (sched.endToEnd)
            emitDenseBlock(prog, ls);
    }
    if (sched.endToEnd && sched.stemFlops > 0.0) {
        const auto L = static_cast<uint32_t>(sched.layers.size());
        prog.code.push_back({Opcode::Gemm, L, sched.stemMacs, 0});
        prog.code.push_back({Opcode::Barrier, L, 0, 0});
    }
    return prog;
}

Program
Compiler::compile(const core::ModelPlan &plan, bool end_to_end) const
{
    const core::schedule::ScheduleBuilder builder(
        {.hw = scheduleParams(cfg_), .buildLayouts = false});
    return compile(builder.build(plan, end_to_end));
}

} // namespace vitcod::accel
