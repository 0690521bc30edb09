/**
 * @file
 * Instruction issue/result latencies for the two machine models,
 * following the paper's Table 5.
 *
 * "Issue latency" is the number of cycles the functional unit is
 * occupied (issue latency == result latency means unpipelined);
 * "result latency" is the number of cycles until dependents may use
 * the result. Load result latency is the L1-hit latency; cache misses
 * add on top in the memory hierarchy model.
 */

#ifndef LVPLIB_ISA_LATENCY_HH
#define LVPLIB_ISA_LATENCY_HH

#include <array>
#include <cstddef>

#include "isa/opcodes.hh"

namespace lvplib::isa
{

/** Which of the paper's two machines a latency is being asked for. */
enum class MachineIsa
{
    Ppc620,    ///< PowerPC 620 / 620+ ("brainiac", out-of-order)
    Alpha21164 ///< Alpha AXP 21164 ("speed demon", in-order)
};

const char *machineIsaName(MachineIsa m);

/** Issue/result latency pair for one opcode on one machine. */
struct OpLatency
{
    unsigned issue;  ///< cycles the FU stays busy
    unsigned result; ///< cycles until the result is available
};

/**
 * Paper Table 5, the single source of every latency below. The timing
 * models do not call it per record: opLatency() reads a table built
 * from it at compile time.
 */
constexpr OpLatency
table5Latency(MachineIsa m, Opcode op)
{
    const bool ppc = (m == MachineIsa::Ppc620);
    switch (fuType(op)) {
      case FuType::SCFX:
        // Simple integer: 1/1 on both machines.
        return {1, 1};

      case FuType::MCFX:
        // Complex integer: 1-35 on the 620, 16/16 on the 21164.
        switch (op) {
          case Opcode::MULL:
            return ppc ? OpLatency{2, 3} : OpLatency{16, 16};
          case Opcode::DIVD:
          case Opcode::REMD:
            return ppc ? OpLatency{35, 35} : OpLatency{16, 16};
          default:
            // mfspr/mtspr-class moves: multi-cycle unit, short latency.
            return {1, 1};
        }

      case FuType::FPU:
        switch (op) {
          case Opcode::FDIV:
            // Complex FP: 18/18 (620), 1/36 (21164).
            return ppc ? OpLatency{18, 18} : OpLatency{1, 36};
          case Opcode::FSQRT:
            return ppc ? OpLatency{18, 18} : OpLatency{1, 65};
          default:
            // Simple FP: 1/3 (620), 1/4 (21164).
            return ppc ? OpLatency{1, 3} : OpLatency{1, 4};
        }

      case FuType::LSU:
        // Load/store: 1 issue, 2-cycle L1-hit result on both.
        return {1, 2};

      case FuType::BRU:
        // Branches resolve in one cycle; the misprediction penalty is
        // modeled separately by each machine model.
        return {1, 1};
    }
    lvp_panic("opLatency: bad opcode");
}

/** table5Latency() for every (machine, opcode), indexed by the enum
 *  values. */
inline constexpr auto OpLatencyTable = [] {
    constexpr std::size_t Ops =
        static_cast<std::size_t>(Opcode::NumOpcodes);
    std::array<std::array<OpLatency, Ops>, 2> t{};
    for (MachineIsa m : {MachineIsa::Ppc620, MachineIsa::Alpha21164})
        for (std::size_t op = 0; op < Ops; ++op)
            t[static_cast<std::size_t>(m)][op] =
                table5Latency(m, static_cast<Opcode>(op));
    return t;
}();

/** Paper Table 5 lookup (one load per record in the timing models). */
inline OpLatency
opLatency(MachineIsa m, Opcode op)
{
    lvp_dassert(op < Opcode::NumOpcodes, "opLatency: bad opcode %d",
                static_cast<int>(op));
    return OpLatencyTable[static_cast<std::size_t>(m)]
                         [static_cast<std::size_t>(op)];
}

/** Branch misprediction penalty in cycles (paper Table 5 last row). */
constexpr unsigned
mispredictPenalty(MachineIsa m)
{
    // Table 5: 0/1+ for the 620 (refetch; the '+' is the refetch time
    // modeled by the pipeline itself), 0/4 for the 21164.
    return m == MachineIsa::Ppc620 ? 1 : 4;
}

} // namespace lvplib::isa

#endif // LVPLIB_ISA_LATENCY_HH
