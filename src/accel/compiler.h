/**
 * @file
 * The algorithm-hardware interface pipeline of the paper's Fig. 14:
 * a *network parser* extracts hardware-relevant configuration from a
 * ViTCoD-trained sparse ViT (global-token counts, CSC indices,
 * buffer needs, dataflow phases), and a *compiler* lowers it into
 * the instruction stream that reconfigures and drives the
 * accelerator — "one-time compilation cost for each task" (Sec.
 * V-B3). The stream is not priced on its own: ViTCoDAccelerator
 * prices the same Schedule IR the compiler lowers, and the
 * stream's DRAM traffic and MAC operands (Program::totals) equal
 * that price's RunStats by construction.
 */

#ifndef VITCOD_ACCEL_COMPILER_H
#define VITCOD_ACCEL_COMPILER_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "accel/vitcod_accel.h"

namespace vitcod::accel {

/** Instruction opcodes of the ViTCoD accelerator. */
enum class Opcode : uint8_t
{
    ConfigLines,  //!< arg0 = denser lines, arg1 = sparser lines
    SetAccumMode, //!< arg0: 0 = inter-PE (SDDMM), 1 = intra-PE (SpMM)
    LoadIndex,    //!< arg0 = index bytes -> IdxBuf
    LoadTile,     //!< arg0 = DRAM bytes -> activation buffers
    GatherRows,   //!< arg0 = row count, arg1 = bytes/row (LRU misses)
    Decode,       //!< arg0 = decoder MACs (dedicated engine)
    Encode,       //!< arg0 = encoder MACs (dedicated engine)
    /**
     * arg0 = MACs on the denser engine (the region is stored and
     * processed densely: all n x N_gt entries). arg1 = the subset
     * falling on mask nonzeros — what a value-level execution
     * performs; carried so the instruction stream totals both MAC
     * currencies (Program::totals counts arg0).
     */
    SddmmDense,
    SddmmSparse,  //!< arg0 = precomputed engine cycles, arg1 = MACs
    Softmax,      //!< arg0 = stored score elements
    SpmmDense,    //!< arg0/arg1 as SddmmDense
    SpmmSparse,   //!< arg0 = precomputed engine cycles, arg1 = MACs
    Gemm,         //!< arg0 = MACs on the whole array (proj/MLP)
    Elementwise,  //!< arg0 = elements (LayerNorm / activation)
    Predict,      //!< arg0 = MACs of dynamic mask prediction (NLP)
    StoreTile,    //!< arg0 = DRAM bytes written back
    Barrier,      //!< close the current overlap phase
};

/** Printable mnemonic. */
const char *opcodeName(Opcode op);

/** One instruction; args are op-specific (see Opcode docs). */
struct Instruction
{
    Opcode op;
    uint32_t layer = 0;
    uint64_t arg0 = 0;
    uint64_t arg1 = 0;
};

/** A compiled instruction stream plus bookkeeping. */
struct Program
{
    std::vector<Instruction> code;
    std::string modelName;
    bool endToEnd = false;

    /** Number of instructions with opcode @p op. */
    size_t count(Opcode op) const;

    /** DRAM traffic and MAC operands the stream carries. */
    struct Totals
    {
        Bytes dramRead = 0;  //!< LD.IDX + LD.TILE bytes
        Bytes dramWrite = 0; //!< ST.TILE bytes
        /** arg0 of every MAC-issuing op, except the sparser-engine
         *  ops, whose arg0 is cycles and arg1 their MACs. */
        MacOps macs = 0;
    };

    /** Sum the stream's operands (the RunStats currencies). */
    Totals totals() const;

    /** Human-readable disassembly. */
    void disassemble(std::ostream &os, size_t max_instrs = 0) const;
};

/**
 * The compiler back end of Fig. 14: lowers a ModelSchedule — the
 * Schedule IR the network parser (core::schedule::ScheduleBuilder)
 * produced — into the instruction stream. Every instruction operand
 * is a field of the IR; the compiler re-derives nothing, which is
 * what keeps the stream consistent with the simulator pricing the
 * same schedule. The (plan, end_to_end) overload is the one-call
 * convenience: build + lower.
 */
class Compiler
{
  public:
    explicit Compiler(ViTCoDConfig cfg = {});

    const ViTCoDConfig &config() const { return cfg_; }

    /** Build the schedule for @p plan, then lower it. */
    Program compile(const core::ModelPlan &plan,
                    bool end_to_end) const;

    /** Lower a prebuilt schedule (must target a two-pronged array). */
    Program compile(const core::schedule::ModelSchedule &sched) const;

  private:
    /** Emit one layer's attention phases. */
    void emitAttentionLayer(
        Program &prog, const core::schedule::LayerSchedule &ls) const;

    /** Emit one layer's dense (projection/MLP) phases. */
    void emitDenseBlock(
        Program &prog, const core::schedule::LayerSchedule &ls) const;

    ViTCoDConfig cfg_;
};

} // namespace vitcod::accel

#endif // VITCOD_ACCEL_COMPILER_H
