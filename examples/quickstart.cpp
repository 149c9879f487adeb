/**
 * @file
 * Quickstart: the complete mini-graph flow on the paper's Figure 1
 * code in five steps — assemble, profile, select, inspect the MGT,
 * and compare baseline vs mini-graph timing through the
 * ExperimentEngine (the driver every bench uses).
 */

#include <cstdio>

#include "assembler/assembler.hh"
#include "engine/engine.hh"

using namespace mg;

int
main()
{
    // 1. Assemble a program containing the paper's gcc idioms inside
    //    a small loop.
    Program prog = assemble(R"(
        .text
main:
        li   r16, 2000        # iterations
        li   r5, 1000000
        clr  r18
        lda  r4, table
        lda  r6, out
loop:
        # Figure 1 left: addl / cmplt / bne collapse around the branch
        addl r18, 2, r18
        cmplt r18, r5, r7
        bne  r7, body
        clr  r18
body:
        # Figure 1 right: ldq / srl / and collapse around the load
        ldq  r2, 16(r4)
        srl  r2, 14, r17
        and  r17, 1, r17
        stb  r17, 0(r6)       # independent sink: no loop-carried chain
        addq r6, 1, r6
        xor  r20, r18, r20
        subq r16, 1, r16
        bgt  r16, loop
        stq  r20, result
        halt
        .data
table:  .space 64
result: .quad 0
out:    .space 2048
    )", "quickstart");
    printf("assembled %zu instructions\n\n", prog.text.size());

    // 2. Profile with the functional emulator.
    BlockProfile prof = collectProfile(prog, nullptr, 400000);

    // 3. Select mini-graphs (the paper's default policy: 512 MGT
    //    entries, max 4 instructions, integer-memory allowed).
    SimConfig cfg = SimConfig::intMemMg();
    PreparedMg prep = prepareMiniGraphs(prog, prof, cfg.policy,
                                        cfg.machine);
    printf("selected %zu mini-graph instances over %zu templates, "
           "estimated coverage %.1f%%\n\n",
           prep.selection.instances.size(), prep.table.size(),
           100.0 * prep.staticCoverage);

    // 4. Inspect the MGT (MGHT headers + MGST banks, Figure 2 style).
    printf("%s\n", prep.table.str().c_str());
    printf("rewritten hot loop:\n");
    for (const SelectedInstance &si : prep.selection.instances) {
        printf("  handle @0x%llx: %s\n",
               static_cast<unsigned long long>(
                   Program::pcOf(si.cand.anchor)),
               prep.program.text[si.cand.anchor].disasm().c_str());
    }
    printf("\n");

    // 5. Run both machines through the engine. Cells are cached by
    //    (workload, config) fingerprint, so asking again is free —
    //    exactly what a big sweep exploits.
    ExperimentEngine engine;
    EngineWorkload w{"quickstart", "", &prog, nullptr};
    CoreStats base = engine.cell(w, {"baseline", SimConfig::baseline()})
                         .stats;
    CoreStats mgst = engine.cell(w, {"int-mem", cfg}).stats;
    printf("baseline   : %llu cycles, IPC %.3f\n",
           static_cast<unsigned long long>(base.cycles), base.ipc());
    printf("mini-graphs: %llu cycles, IPC %.3f (%.1f%% speedup, "
           "%.1f%% of work executed inside handles)\n",
           static_cast<unsigned long long>(mgst.cycles), mgst.ipc(),
           100.0 * (mgst.ipc() / base.ipc() - 1.0),
           100.0 * mgst.dynamicCoverage());
    engine.cell(w, {"int-mem", cfg});   // cache hit: no re-run
    EngineCounters ec = engine.counters();
    printf("engine cache: %llu runs computed, %llu served from "
           "cache\n",
           static_cast<unsigned long long>(ec.runComputes),
           static_cast<unsigned long long>(ec.runHits));
    return 0;
}
