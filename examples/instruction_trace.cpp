/**
 * @file
 * The algorithm-hardware interface of the paper's Fig. 14 in
 * action: parse a ViTCoD-trained sparse model, compile it into the
 * accelerator's instruction stream, disassemble the first layer,
 * and check that the stream carries exactly the DRAM traffic and
 * MACs the simulator prices from the same schedule ("one-time
 * compilation cost for each task", Sec. V-B3). Exits nonzero on a
 * mismatch.
 */

#include <cstdio>
#include <iostream>

#include "accel/compiler.h"
#include "core/pipeline.h"

int
main()
{
    using namespace vitcod;

    const auto plan = core::buildModelPlan(
        model::deitTiny(), core::makePipelineConfig(0.9, true));

    accel::Compiler compiler;
    const accel::Program prog =
        compiler.compile(plan, /*end_to_end=*/false);

    std::printf("compiled %s into %zu instructions "
                "(%zu barriers, %zu sparse-SDDMM ops)\n\n",
                prog.modelName.c_str(), prog.code.size(),
                prog.count(accel::Opcode::Barrier),
                prog.count(accel::Opcode::SddmmSparse));

    std::cout << "--- first layer of the stream ---\n";
    prog.disassemble(std::cout, 16);

    const accel::Program::Totals stream = prog.totals();
    const accel::RunStats priced =
        accel::ViTCoDAccelerator{}.runAttention(plan);
    const bool match = stream.dramRead == priced.dramRead &&
                       stream.dramWrite == priced.dramWrite &&
                       stream.macs == priced.macs;

    std::printf("\nstream:    %llu B read, %llu B written, %llu MACs\n"
                "simulator: %llu B read, %llu B written, %llu MACs "
                "(%llu cycles) | %s\n",
                static_cast<unsigned long long>(stream.dramRead),
                static_cast<unsigned long long>(stream.dramWrite),
                static_cast<unsigned long long>(stream.macs),
                static_cast<unsigned long long>(priced.dramRead),
                static_cast<unsigned long long>(priced.dramWrite),
                static_cast<unsigned long long>(priced.macs),
                static_cast<unsigned long long>(priced.cycles),
                match ? "exact agreement" : "MISMATCH");
    return match ? 0 : 1;
}
