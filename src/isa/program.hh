/**
 * @file
 * A Program: assembled VLISA code plus an initial data image and the
 * memory-layout constants shared by the assembler, interpreter, and
 * timing models.
 */

#ifndef LVPLIB_ISA_PROGRAM_HH
#define LVPLIB_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace lvplib::isa
{

/** Memory-layout constants for all VLISA programs. */
namespace layout
{
constexpr Addr CodeBase = 0x0001'0000;  ///< first instruction address
constexpr Addr DataBase = 0x0100'0000;  ///< static data section
constexpr Addr HeapBase = 0x0800'0000;  ///< workload scratch heap
constexpr Addr StackTop = 0x7fff'f000;  ///< stack grows down from here
constexpr unsigned InstBytes = 4;       ///< pc stride per instruction
} // namespace layout

/**
 * An executable program image: the instruction vector (pc-indexed),
 * the initial contents of the data section, and the symbol tables the
 * assembler resolved.
 */
class Program
{
  public:
    /** Address of the first instruction. */
    Addr entry() const { return layout::CodeBase; }

    /** Address one past the last instruction. */
    Addr
    codeEnd() const
    {
        return layout::CodeBase + code_.size() * layout::InstBytes;
    }

    /** Number of static instructions. */
    std::size_t size() const { return code_.size(); }

    /** True when @p pc addresses an instruction in this program. */
    bool
    validPc(Addr pc) const
    {
        return pc >= layout::CodeBase && pc < codeEnd() &&
               (pc - layout::CodeBase) % layout::InstBytes == 0;
    }

    /** Instruction at @p pc (must be a valid pc). Inline: the trace
     *  reader binds every decoded record through it. */
    const Instruction &
    fetch(Addr pc) const
    {
        lvp_assert(validPc(pc), "pc=0x%llx",
                   static_cast<unsigned long long>(pc));
        return code_[(pc - layout::CodeBase) / layout::InstBytes];
    }

    /** Instruction by static index. */
    const Instruction &at(std::size_t idx) const { return code_[idx]; }

    /** Mutable access for the assembler. */
    std::vector<Instruction> &code() { return code_; }
    const std::vector<Instruction> &code() const { return code_; }

    /** Initial data image: byte values at absolute addresses. */
    const std::map<Addr, std::uint8_t> &dataImage() const { return data_; }

    /** Poke one byte into the initial data image. */
    void setByte(Addr a, std::uint8_t v) { data_[a] = v; }

    /** Poke a little-endian 64-bit word into the initial data image. */
    void setWord(Addr a, Word v);

    /** Record a resolved symbol (label or data symbol). */
    void addSymbol(const std::string &name, Addr a) { symbols_[name] = a; }

    /** Address of a symbol; fatal when unknown. */
    Addr symbol(const std::string &name) const;

    /** True when @p name was defined. */
    bool hasSymbol(const std::string &name) const;

    /** All symbols, for diagnostics. */
    const std::map<std::string, Addr> &symbols() const { return symbols_; }

  private:
    std::vector<Instruction> code_;
    std::map<Addr, std::uint8_t> data_;
    std::map<std::string, Addr> symbols_;
};

} // namespace lvplib::isa

#endif // LVPLIB_ISA_PROGRAM_HH
