/**
 * @file
 * Design-space exploration on one kernel: how MGT capacity, maximum
 * mini-graph size, selection policies, and collapsing pipelines trade
 * off coverage against speedup — the knobs a user tunes when adopting
 * the library. The whole space is one ExperimentEngine sweep: the
 * kernel is profiled once, every configuration cell runs in parallel
 * under `--jobs N`, and the cache counters show the dedup at work.
 * With `--critpath` (or `--trace N` / `--whatif SPEC`) every row also
 * names the category that dominates its critical path, and a what-if
 * spec adds the analyzer's predicted cycles relative to the traced run.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "engine/cli.hh"
#include "sim/report.hh"
#include "workloads/suites.hh"

using namespace mg;

namespace {

/** "<category> <share>" for the category holding the most
 *  critical-path cycles of @p cp. */
std::string
topCategory(const CritPathSummary &cp)
{
    if (!cp.present || !cp.error.empty())
        return "-";
    int top = 0;
    for (int c = 1; c < cpCatCount; ++c) {
        if (cp.breakdown[c] > cp.breakdown[top])
            top = c;
    }
    return strfmt("%s %s", cpCatName(static_cast<CpCat>(top)),
                  fmtPct(cp.share(static_cast<CpCat>(top))).c_str());
}

/** Predicted what-if cycles over the traced run's cycles. */
std::string
whatIfRatio(const CritPathSummary &cp)
{
    if (!cp.present || !cp.error.empty() || !cp.actualCycles)
        return "-";
    return fmtDouble(static_cast<double>(cp.whatIfCycles) /
                     static_cast<double>(cp.actualCycles), 3);
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli = parseCli(argc, argv);
    const char *name =
        cli.rest.empty() ? "adpcm.enc" : cli.rest[0].c_str();
    BoundKernel bk = bindKernel(findKernel(name), cli.scale);
    printf("design space for kernel '%s' at scale %s (%s)\n\n",
           bk.kernel->name, scaleName(bk.scale),
           bk.kernel->description);

    SweepSpec spec;
    spec.workloads = {workload(bk)};
    spec.columns.push_back({"baseline", SimConfig::baseline(), true});
    spec.baselineColumn = 0;
    for (int entries : {8, 32, 128, 512}) {
        SimConfig cfg = SimConfig::intMemMg();
        cfg.policy.maxTemplates = entries;
        spec.columns.push_back(
            {strfmt("int-mem, %d entries", entries), cfg, true});
    }
    for (int size : {2, 3, 4, 8}) {
        SimConfig cfg = SimConfig::intMemMg();
        cfg.policy.maxSize = size;
        spec.columns.push_back(
            {strfmt("int-mem, size<=%d", size), cfg, true});
    }
    {
        spec.columns.push_back({"int only", SimConfig::intMg(), true});
        spec.columns.push_back(
            {"int + collapsing", SimConfig::intMg(true), true});
        spec.columns.push_back(
            {"int-mem + collapsing", SimConfig::intMemMg(true), true});
        SimConfig cfg = SimConfig::intMemMg();
        cfg.policy.allowExternallySerial = false;
        spec.columns.push_back({"int-mem, no ext-serial", cfg, true});
        cfg = SimConfig::intMemMg();
        cfg.policy.allowInteriorLoads = false;
        spec.columns.push_back(
            {"int-mem, no replay-vulnerable", cfg, true});
        cfg = SimConfig::intMemMg();
        cfg.compress = true;
        spec.columns.push_back(
            {"int-mem, compressed layout", cfg, true});
    }

    ExperimentEngine engine(cli.jobs);
    cli.configure(engine);
    cli.applyColumns(spec);
    SweepResult r = engine.sweep(spec);
    if (r.planOnly)
        return 0;   // --dry-run: the plan has been printed

    const SweepCell &base = r.at(0, 0);
    printf("baseline IPC %.3f over %llu cycles", base.stats.ipc(),
           static_cast<unsigned long long>(base.stats.cycles));
    if (cli.critpath)
        printf("; critical path %s", topCategory(base.critpath).c_str());
    printf("\n\n");

    const bool whatIf = cli.critpath && !cli.whatIf.empty();
    std::vector<std::string> head = {"config", "templates", "coverage",
                                     "IPC", "speedup"};
    if (cli.critpath)
        head.push_back("critical path");
    if (whatIf)
        head.push_back("what-if/actual");
    TextTable t;
    t.header(head);
    for (std::size_t col = 1; col < r.columns.size(); ++col) {
        const SweepCell &c = r.at(0, col);
        std::vector<std::string> row = {
            r.columns[col],
            strfmt("%llu", static_cast<unsigned long long>(c.templates)),
            fmtPct(c.staticCoverage), fmtDouble(c.stats.ipc(), 3),
            fmtDouble(r.speedup(0, col), 3)};
        if (cli.critpath)
            row.push_back(topCategory(c.critpath));
        if (whatIf)
            row.push_back(whatIfRatio(c.critpath));
        t.row(row);
    }
    printf("%s\n", t.str().c_str());
    std::string outcomes = outcomeSummary(r);
    if (!outcomes.empty())
        printf("%s\n", outcomes.c_str());

    EngineCounters ec = engine.counters();
    printf("engine: %d jobs; profiles %llu computed / %llu reused, "
           "prepares %llu computed / %llu reused\n",
           engine.jobs(),
           static_cast<unsigned long long>(ec.profileComputes),
           static_cast<unsigned long long>(ec.profileHits),
           static_cast<unsigned long long>(ec.prepareComputes),
           static_cast<unsigned long long>(ec.prepareHits));
    return 0;
}
