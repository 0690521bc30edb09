/**
 * @file
 * Seeded random VLISA programs, shared by the interpreter fuzzer (as
 * input to its differential oracles) and the timing-model fuzzer.
 */

#ifndef LVPLIB_TESTS_RANDOM_PROGRAM_HH
#define LVPLIB_TESTS_RANDOM_PROGRAM_HH

#include <cstdint>
#include <vector>

#include "isa/assembler.hh"
#include "isa/program.hh"
#include "util/rng.hh"

namespace lvplib::testutil
{

/**
 * The per-seed random straight-line program: 400 integer, FP, compare
 * and 1/4/8-byte load/store instructions over a 512-byte scratch
 * array, after a prologue that seeds r3..r15 and f1..f5.
 */
inline isa::Program
randomProgram(int seed)
{
    Rng rng(static_cast<std::uint64_t>(seed) * 6364136223846793005ull +
            1442695040888963407ull);

    isa::Assembler a;
    Addr scratch = a.dataLabel("scratch");
    a.dspace(512);
    (void)scratch;

    // Fixed registers: r20 = scratch base. Working set: r3..r15 and
    // f-register images in r24..r28 via FP ops on FPRs 1..5.
    a.la(20, "scratch");
    std::vector<isa::Instruction> body;

    auto gpr = [&] { return static_cast<RegIndex>(3 + rng.below(13)); };
    auto fpr = [&] {
        return static_cast<RegIndex>(isa::FprBase + 1 + rng.below(5));
    };

    // Seed some register values.
    for (RegIndex r = 3; r <= 15; ++r)
        a.li(r, static_cast<std::int64_t>(rng.next() >> 8));
    for (int f = 1; f <= 5; ++f)
        a.fcfid(static_cast<RegIndex>(f), gpr());

    const int n = 400;
    for (int i = 0; i < n; ++i) {
        switch (rng.below(26)) {
          case 0: a.add(gpr(), gpr(), gpr()); break;
          case 1: a.sub(gpr(), gpr(), gpr()); break;
          case 2: a.and_(gpr(), gpr(), gpr()); break;
          case 3: a.or_(gpr(), gpr(), gpr()); break;
          case 4: a.xor_(gpr(), gpr(), gpr()); break;
          case 5: a.sld(gpr(), gpr(), gpr()); break;
          case 6: a.srd(gpr(), gpr(), gpr()); break;
          case 7: a.srad(gpr(), gpr(), gpr()); break;
          case 8: a.addi(gpr(), gpr(), rng.range(-32768, 32767)); break;
          case 9: a.andi(gpr(), gpr(), rng.range(0, 65535)); break;
          case 10: a.ori(gpr(), gpr(), rng.range(0, 65535)); break;
          case 11: a.xori(gpr(), gpr(), rng.range(0, 65535)); break;
          case 12:
            a.sldi(gpr(), gpr(), static_cast<unsigned>(rng.below(64)));
            break;
          case 13:
            a.srdi(gpr(), gpr(), static_cast<unsigned>(rng.below(64)));
            break;
          case 14:
            a.sradi(gpr(), gpr(), static_cast<unsigned>(rng.below(64)));
            break;
          case 15: a.mull(gpr(), gpr(), gpr()); break;
          case 16: a.divd(gpr(), gpr(), gpr()); break;
          case 17: a.remd(gpr(), gpr(), gpr()); break;
          case 18:
            a.cmpi(static_cast<unsigned>(rng.below(8)), gpr(),
                   rng.range(-100, 100));
            break;
          case 19: {
            auto sz = rng.below(3);
            auto disp = static_cast<std::int64_t>(rng.below(64)) * 8;
            if (sz == 0) a.ld(gpr(), disp, 20);
            else if (sz == 1) a.lwz(gpr(), disp, 20);
            else a.lbz(gpr(), disp, 20);
            break;
          }
          case 20: {
            auto sz = rng.below(3);
            auto disp = static_cast<std::int64_t>(rng.below(64)) * 8;
            if (sz == 0) a.std_(gpr(), disp, 20);
            else if (sz == 1) a.stw(gpr(), disp, 20);
            else a.stb(gpr(), disp, 20);
            break;
          }
          case 21: {
            auto fd = static_cast<RegIndex>(1 + rng.below(5));
            auto f1 = static_cast<RegIndex>(1 + rng.below(5));
            auto f2 = static_cast<RegIndex>(1 + rng.below(5));
            switch (rng.below(4)) {
              case 0: a.fadd(fd, f1, f2); break;
              case 1: a.fsub(fd, f1, f2); break;
              case 2: a.fmul(fd, f1, f2); break;
              default: a.fdiv(fd, f1, f2); break;
            }
            break;
          }
          case 22:
            a.fsqrt(static_cast<RegIndex>(1 + rng.below(5)),
                    static_cast<RegIndex>(1 + rng.below(5)));
            break;
          case 23:
            a.fcfid(static_cast<RegIndex>(1 + rng.below(5)), gpr());
            break;
          case 24: a.fctid(gpr(), static_cast<RegIndex>(
                                      1 + rng.below(5)));
            break;
          default: a.cmp(static_cast<unsigned>(rng.below(8)), gpr(),
                         gpr());
            break;
        }
        (void)fpr;
    }
    a.halt();
    return a.finish();
}

} // namespace lvplib::testutil

#endif // LVPLIB_TESTS_RANDOM_PROGRAM_HH
