/**
 * @file
 * The benchmark's sweep driver. It runs one workload as several
 * interleaved passes over the same kernel x configuration cells, each
 * pass on a fresh ExperimentEngine at --jobs 1, and writes every
 * pass's per-cell host times and simulated stats as JSON. run.py turns
 * that into metrics: a cell's host time is its fastest pass, so a
 * burst of host noise has to hit a cell in every pass to show.
 *
 *   perfbench_driver --workload W --seed N --passes P --trace 0|1
 *                    --kernels a,b,c --work-dir DIR
 *                    --out FILE [--spans FILE]
 *   perfbench_driver --full-ref FILE
 *
 * With --trace 1 the passes alternate untraced / traced; traced passes
 * record spans (see spans.hh, wraps.cpp) and also time the functional
 * emulator on every cell's executed binary.
 */

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "engine/cli.hh"
#include "engine/engine.hh"
#include "spans.hh"
#include "workloads/suites.hh"

using namespace mg;
using perfbench::Scope;
namespace fs = std::filesystem;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    int passes = 4;
    bool trace = false;
    std::vector<std::string> kernels;   ///< long-tier subset
    std::string workDir = ".";
    std::string out;
    std::string spansOut;
    std::string fullRef;
};

/** The workload's shape: which tier, and how cells are simulated. */
struct Plan
{
    Scale scale = Scale::Ref;
    bool sampled = false;   ///< sampled warm-through at interval 1000
    bool store = false;     ///< a checkpoint store is attached
    bool prime = false;     ///< one untimed cold pass fills the store
};

Plan
planOf(const std::string &workload)
{
    if (workload == "ref-full")
        return {Scale::Ref, false, false, false};
    if (workload == "long-sampled-cold")
        return {Scale::Long, true, true, false};
    if (workload == "long-sampled-warm")
        return {Scale::Long, true, true, true};
    fatal("unknown workload '%s'", workload.c_str());
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t at = 0;
    while (at <= s.size()) {
        std::size_t comma = s.find(',', at);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > at)
            out.push_back(s.substr(at, comma - at));
        at = comma + 1;
    }
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", a.c_str());
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--passes")
            o.passes = std::stoi(value());
        else if (a == "--trace")
            o.trace = value() == "1";
        else if (a == "--kernels")
            o.kernels = splitCommas(value());
        else if (a == "--work-dir")
            o.workDir = value();
        else if (a == "--out")
            o.out = value();
        else if (a == "--spans")
            o.spansOut = value();
        else if (a == "--full-ref")
            o.fullRef = value();
        else
            fatal("unknown argument '%s'", a.c_str());
    }
    if (o.passes < 1)
        fatal("--passes must be at least 1");
    return o;
}

/** splitmix64: the seed's stream for the per-pass row orders. */
std::uint64_t
mix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<std::size_t>
rowOrder(std::size_t rows, std::uint64_t seed, int pass)
{
    std::vector<std::size_t> order(rows);
    for (std::size_t i = 0; i < rows; ++i)
        order[i] = i;
    std::uint64_t state = seed * 1000003ull + static_cast<unsigned>(pass);
    for (std::size_t i = rows; i > 1; --i)
        std::swap(order[i - 1], order[mix(state) % i]);
    return order;
}

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
bitsOf(double d)
{
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

/** Digest of everything a cell simulated: every CoreStats counter
 *  and, for a sampled cell, the sampler's work split and estimate.
 *  Store traffic counters are left out — they are the one thing a
 *  warm session is allowed to change. */
std::uint64_t
statsDigest(const SweepCell &c)
{
    std::uint64_t h = 1469598103934665603ull;
#define PB_HASH(f) h = fnv(h, static_cast<std::uint64_t>(c.stats.f));
    MG_CORE_STATS_COUNTERS(PB_HASH)
#undef PB_HASH
    if (c.sampledRun) {
        const SampledStats &s = c.sampled;
        for (std::uint64_t v :
             {s.totalWork, s.prefixWork, s.measuredWork, s.measuredCycles,
              s.detailedWork, s.ffWork, std::uint64_t{s.intervals},
              bitsOf(s.ipcHat), bitsOf(s.ipcRelCi95),
              std::uint64_t{s.exact}})
            h = fnv(h, v);
    }
    return h;
}

const char *
outcomeName(CellOutcome o)
{
    switch (o) {
    case CellOutcome::Ok:
        return "ok";
    case CellOutcome::Failed:
        return "failed";
    case CellOutcome::TimedOut:
        return "timed_out";
    case CellOutcome::Skipped:
        return "skipped";
    }
    return "unknown";
}

std::uint64_t
dirBytes(const fs::path &dir)
{
    std::uint64_t n = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec))
            n += it->file_size(ec);
    }
    return n;
}

/** Set-ups per pass; setup_s is the median over all of a run's. */
constexpr int setupReps = 3;

/** A traced set-up or cell takes its time from its root span, so the
 *  layer self times under it add up to exactly that time. */
double
spanSeconds(int id)
{
    const perfbench::Span &s = perfbench::spans()[static_cast<std::size_t>(id)];
    return s.end - s.start;
}

/** One row of the sweep: a kernel bound at the workload's scale. */
struct Row
{
    BoundKernel bound;
    std::uint64_t profileWork = 0;   ///< work a profile run executes
};

struct CellResult
{
    double seconds = 0;
    SweepCell cell;
};

struct PassResult
{
    bool traced = false;
    std::vector<double> setupSeconds;
    std::vector<CellResult> cells;   ///< row-major, canonical order
    CheckpointStoreCounters store;
    std::uint64_t storeDiskBytes = 0;
    EngineCounters engine;
};

class Bench
{
  public:
    explicit Bench(const Options &o) : opt_(o), plan_(planOf(o.workload))
    {
        columns_ = standardColumns();
        if (plan_.sampled) {
            // The documented sampled default, exactly as the CLI builds
            // it for `--scale long --sample-interval 1000`.
            const char *argv[] = {"perfbench", "--scale", "long",
                                  "--sample-interval", "1000"};
            CliOptions cli = parseCli(5, const_cast<char **>(argv));
            for (SweepColumn &c : columns_)
                c.config.sampling = cli.samplingParams();
        }
        bindRows();
    }

    void
    run()
    {
        // The CPUs this process may use (see pickQuietCpu).
        cpu_set_t allowed;
        if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &allowed))
                    cpus_.push_back(c);
            }
        }
        if (plan_.prime) {
            storeDir_ = fs::path(opt_.workDir) / "store-primed";
            fs::remove_all(storeDir_);
            prime_ = runPass(0, false);
        }
        for (int p = 0; p < opt_.passes; ++p) {
            if (plan_.store && !plan_.prime) {
                storeDir_ = fs::path(opt_.workDir) /
                    ("store-pass" + std::to_string(p));
                fs::remove_all(storeDir_);
            }
            bool traced = opt_.trace && p % 2 == 1;
            passes_.push_back(runPass(p, traced));
            if (plan_.store && !plan_.prime)
                fs::remove_all(storeDir_);
        }
        if (plan_.prime)
            fs::remove_all(storeDir_);
    }

    void writeJson(std::FILE *f) const;

  private:
    void
    bindRows()
    {
        for (const std::string &suite : suiteNames()) {
            for (const Kernel *k : suiteKernels(suite)) {
                if (!k->supports(plan_.scale))
                    continue;
                // Every kernel at the tier must pass checkKernel; only
                // the chosen subset becomes sweep rows.
                BoundKernel bk = bindKernel(*k, plan_.scale);
                checkKernel(bk);
                bool wanted = opt_.kernels.empty();
                for (const std::string &name : opt_.kernels)
                    wanted |= name == k->name;
                if (!wanted)
                    continue;
                Row r;
                r.bound = bk;
                Emulator emu(*bk.program);
                bk.setup(emu);
                r.profileWork =
                    emu.run(SimConfig().profileBudget).dynWork;
                rows_.push_back(std::move(r));
            }
        }
        if (rows_.size() != opt_.kernels.size() && !opt_.kernels.empty())
            fatal("--kernels names a kernel without a %s variant",
                  scaleName(plan_.scale));
    }

    /** Assemble, profile, and select/rewrite every row x column on a
     *  fresh engine, filling @p engine, @p programs and @p workloads.
     *  @return the host seconds it took. */
    double
    setup(std::unique_ptr<ExperimentEngine> &engine,
          std::vector<std::unique_ptr<Program>> &programs,
          std::vector<EngineWorkload> &workloads,
          const std::shared_ptr<CheckpointStore> &store, int pass)
    {
        engine = std::make_unique<ExperimentEngine>(1);
        engine->setCheckpointStore(store);
        programs.clear();
        workloads.clear();
        double t0 = perfbench::now();
        int rootId = -1;
        {
            Scope s("setup");
            s.attr("pass", pass);
            rootId = s.id();
            for (const Row &r : rows_) {
                // assemble() directly: kernelProgram() would serve every
                // pass after the first from its process-wide cache.
                Scope a("assembler.assemble");
                const Kernel &k = *r.bound.kernel;
                std::string unit = k.name;
                if (const ScaleVariant *v = k.variantOf(plan_.scale);
                    v && v->source)
                    unit += strfmt("@%s", scaleName(plan_.scale));
                programs.push_back(std::make_unique<Program>(
                    assemble(k.sourceFor(plan_.scale), unit)));
                EngineWorkload w = workload(r.bound);
                w.program = programs.back().get();
                workloads.push_back(std::move(w));
            }
            for (const EngineWorkload &w : workloads) {
                for (const SweepColumn &c : columns_) {
                    if (c.config.useMiniGraphs) {
                        Scope e("engine.prepare");
                        engine->prepare(w, c.config);
                    }
                }
            }
        }
        return rootId >= 0 ? spanSeconds(rootId) : perfbench::now() - t0;
    }

    CellResult
    runCell(ExperimentEngine &engine, const EngineWorkload &w,
            const SweepColumn &col, int pass, std::size_t index)
    {
        CellResult out;
        double t0 = perfbench::now();
        int rootId = -1;
        {
            Scope root("cell");
            root.attr("pass", pass);
            root.attr("cell", static_cast<double>(index));
            rootId = root.id();
            try {
                if (col.config.sampling.enabled) {
                    // The cell's share of the functional pre-pass: the
                    // first column executing a binary pays for its
                    // summary, later ones hit the engine's cache.
                    Scope s("engine.summary");
                    engine.summary(w, col.config);
                }
                SweepSpec one;
                one.title = "perfbench cell";
                one.workloads = {w};
                one.columns = {col};
                Scope s("engine.sweep");
                out.cell = engine.sweep(one).cells.at(0);
            } catch (const std::exception &e) {
                out.cell = SweepCell();
                out.cell.outcome = CellOutcome::Failed;
                out.cell.error = e.what();
            }
        }
        out.seconds =
            rootId >= 0 ? spanSeconds(rootId) : perfbench::now() - t0;
        return out;
    }

    /** Time the functional emulator alone on each cell's binary. */
    void
    probeOracle(ExperimentEngine &engine,
                const std::vector<EngineWorkload> &workloads, int pass)
    {
        for (const EngineWorkload &w : workloads) {
            for (const SweepColumn &c : columns_) {
                const Program *prog = w.program;
                const MgTable *mgt = nullptr;
                std::shared_ptr<const PreparedMg> prep;
                if (c.config.useMiniGraphs) {
                    prep = engine.prepare(w, c.config);
                    prog = &prep->program;
                    mgt = &prep->table;
                }
                Emulator emu(*prog, mgt);
                w.setup(emu);
                Scope s("emu.run");
                s.attr("pass", pass);
                EmuResult r = emu.run();
                s.attr("work", static_cast<double>(r.dynWork));
            }
        }
    }

    /**
     * Move the process to the CPU that runs a short functional probe
     * fastest right now. On a shared host one CPU can run 1.5x slower
     * than its neighbours for seconds at a time (its core is busy with
     * someone else's work); picking again before every set-up and
     * every 0.1 s of timed work keeps that work on the least contended
     * CPU. The probe only ranks the CPUs; its rate on the chosen one is
     * kept as a record of how fast the host was, not as a metric.
     */
    void
    pickQuietCpu()
    {
        if (cpus_.size() < 2)
            return;
        lastPick_ = perfbench::now();
        auto pin = [](int cpu) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            sched_setaffinity(0, sizeof one, &one);
        };
        double best = 1e30;
        int bestCpu = cpus_[0];
        std::uint64_t work = 0;
        for (int cpu : cpus_) {
            pin(cpu);
            for (int rep = 0; rep < 2; ++rep) {
                double t0 = perfbench::now();
                Emulator emu(*probe_.program);
                probe_.setup(emu);
                work = emu.run().dynWork;
                double t = perfbench::now() - t0;
                if (t < best) {
                    best = t;
                    bestCpu = cpu;
                }
            }
        }
        pin(bestCpu);
        probeRates_.push_back(static_cast<double>(work) / best / 1e6);
    }

    PassResult
    runPass(int pass, bool traced)
    {
        PassResult out;
        out.traced = traced;
        perfbench::setTracing(traced);
        std::shared_ptr<CheckpointStore> store;
        if (plan_.store) {
            CheckpointStoreConfig sc;
            sc.dir = storeDir_.string();
            store = std::make_shared<CheckpointStore>(sc);
        }
        std::unique_ptr<ExperimentEngine> engine;
        std::vector<std::unique_ptr<Program>> programs;
        std::vector<EngineWorkload> workloads;
        for (int rep = 0; rep < setupReps; ++rep) {
            pickQuietCpu();
            out.setupSeconds.push_back(
                setup(engine, programs, workloads, store, pass));
        }

        std::size_t cols = columns_.size();
        out.cells.resize(rows_.size() * cols);
        CheckpointStoreCounters before;
        if (store)
            before = store->counters();
        for (std::size_t row : rowOrder(rows_.size(), opt_.seed, pass)) {
            for (std::size_t c = 0; c < cols; ++c) {
                if (perfbench::now() - lastPick_ > 0.1)
                    pickQuietCpu();
                std::size_t i = row * cols + c;
                out.cells[i] =
                    runCell(*engine, workloads[row], columns_[c], pass, i);
            }
        }
        if (store) {
            out.store = store->counters() - before;
            out.storeDiskBytes = dirBytes(storeDir_);
        }
        out.engine = engine->counters();
        if (traced)
            probeOracle(*engine, workloads, pass);
        perfbench::setTracing(false);
        return out;
    }

    void writePass(std::FILE *f, const PassResult &p) const;

    Options opt_;
    Plan plan_;
    std::vector<SweepColumn> columns_;
    std::vector<Row> rows_;
    std::vector<int> cpus_;
    BoundKernel probe_ = bindKernel(findKernel("dijkstra"));
    double lastPick_ = 0;
    std::vector<double> probeRates_;   ///< Mwork/s on each chosen CPU
    fs::path storeDir_;
    PassResult prime_;
    std::vector<PassResult> passes_;
};

void
Bench::writePass(std::FILE *f, const PassResult &p) const
{
    std::fprintf(f, "{\"traced\": %s, \"setup_s\": [",
                 p.traced ? "true" : "false");
    for (std::size_t i = 0; i < p.setupSeconds.size(); ++i)
        std::fprintf(f, "%s%.9f", i ? ", " : "", p.setupSeconds[i]);
    std::fprintf(f,
                 "],\n \"store\": {\"hits\": %llu, \"misses\": %llu, "
                 "\"writebacks\": %llu, \"corrupt\": %llu, "
                 "\"evictions\": %llu, \"disk_bytes\": %llu},\n",
                 static_cast<unsigned long long>(p.store.hits),
                 static_cast<unsigned long long>(p.store.misses),
                 static_cast<unsigned long long>(p.store.writebacks),
                 static_cast<unsigned long long>(p.store.corrupt),
                 static_cast<unsigned long long>(p.store.evictions),
                 static_cast<unsigned long long>(p.storeDiskBytes));
    const EngineCounters &e = p.engine;
    std::uint64_t hits = e.profileHits + e.prepareHits + e.runHits +
        e.summaryHits + e.sampledHits;
    std::uint64_t computes = e.profileComputes + e.prepareComputes +
        e.runComputes + e.summaryComputes + e.sampledComputes;
    std::fprintf(f, " \"artifact_hits\": %llu, \"artifact_computes\": %llu,"
                    "\n \"cells\": [\n",
                 static_cast<unsigned long long>(hits),
                 static_cast<unsigned long long>(computes));
    for (std::size_t i = 0; i < p.cells.size(); ++i) {
        const SweepCell &c = p.cells[i].cell;
        const SampledStats &s = c.sampled;
        std::fprintf(
            f,
            "  {\"t\": %.9f, \"outcome\": \"%s\", \"digest\": "
            "\"%016llx\", \"cycles\": %llu, \"work\": %llu, "
            "\"sampled\": %s, \"exact\": %s, \"ci95_rel\": %.17g, "
            "\"total_work\": %llu, \"detailed_work\": %llu, "
            "\"ff_work\": %llu, \"measured_work\": %llu}%s\n",
            p.cells[i].seconds, outcomeName(c.outcome),
            static_cast<unsigned long long>(statsDigest(c)),
            static_cast<unsigned long long>(c.stats.cycles),
            static_cast<unsigned long long>(c.stats.committedWork),
            c.sampledRun ? "true" : "false", s.exact ? "true" : "false",
            s.ipcRelCi95, static_cast<unsigned long long>(s.totalWork),
            static_cast<unsigned long long>(s.detailedWork),
            static_cast<unsigned long long>(s.ffWork),
            static_cast<unsigned long long>(s.measuredWork),
            i + 1 < p.cells.size() ? "," : "");
        if (c.outcome != CellOutcome::Ok)
            std::fprintf(stderr, "cell %zu failed: %s\n", i,
                         c.error.c_str());
    }
    std::fprintf(f, " ]}");
}

void
Bench::writeJson(std::FILE *f) const
{
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu,\n",
                 opt_.workload.c_str(),
                 static_cast<unsigned long long>(opt_.seed));
    std::fprintf(f, "\"rows\": [");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        const Row &r = rows_[i];
        std::fprintf(f,
                     "%s\n {\"kernel\": \"%s\", \"suite\": \"%s\", "
                     "\"profile_work\": %llu}",
                     i ? "," : "", r.bound.kernel->name,
                     r.bound.kernel->suite,
                     static_cast<unsigned long long>(r.profileWork));
    }
    std::fprintf(f, "],\n\"columns\": [");
    for (std::size_t i = 0; i < columns_.size(); ++i)
        std::fprintf(f, "%s\"%s\"", i ? ", " : "", columns_[i].name.c_str());
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    std::fprintf(f, "],\n\"peak_rss_kb\": %ld,\n\"probe_mwork_per_s\": [",
                 ru.ru_maxrss);
    for (std::size_t i = 0; i < probeRates_.size(); ++i)
        std::fprintf(f, "%s%.6f", i ? ", " : "", probeRates_[i]);
    std::fprintf(f, "],\n\"prime\": ");
    if (plan_.prime)
        writePass(f, prime_);
    else
        std::fprintf(f, "null");
    std::fprintf(f, ",\n\"passes\": [\n");
    for (std::size_t i = 0; i < passes_.size(); ++i) {
        writePass(f, passes_[i]);
        std::fprintf(f, "%s\n", i + 1 < passes_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
}

/** Full cycle-accurate long tier, every kernel x standard column:
 *  the reference the sampled workloads' IPC error is measured
 *  against. */
void
writeFullReference(const std::string &path)
{
    ExperimentEngine engine(1);
    SweepSpec spec;
    spec.title = "perfbench long-tier full-run reference";
    spec.workloads = suiteWorkloads("all", 0, Scale::Long);
    spec.columns = standardColumns();
    SweepResult r = engine.sweep(spec);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write %s", path.c_str());
    std::fprintf(f, "{\"cells\": [\n");
    for (std::size_t i = 0; i < r.cells.size(); ++i) {
        const SweepCell &c = r.cells[i];
        if (c.outcome != CellOutcome::Ok)
            fatal("reference cell %zu failed: %s", i, c.error.c_str());
        std::fprintf(f,
                     " {\"kernel\": \"%s\", \"config\": \"%s\", "
                     "\"cycles\": %llu, \"work\": %llu}%s\n",
                     r.rows[i / r.columns.size()].c_str(),
                     r.columns[i % r.columns.size()].c_str(),
                     static_cast<unsigned long long>(c.stats.cycles),
                     static_cast<unsigned long long>(c.stats.committedWork),
                     i + 1 < r.cells.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    if (!opt.fullRef.empty()) {
        writeFullReference(opt.fullRef);
        return 0;
    }
    if (opt.out.empty())
        fatal("--out is required");
    fs::create_directories(opt.workDir);
    Bench bench(opt);
    bench.run();

    std::FILE *f = std::fopen(opt.out.c_str(), "w");
    if (!f)
        fatal("cannot write %s", opt.out.c_str());
    bench.writeJson(f);
    std::fclose(f);
    if (!opt.spansOut.empty()) {
        std::FILE *s = std::fopen(opt.spansOut.c_str(), "w");
        if (!s)
            fatal("cannot write %s", opt.spansOut.c_str());
        perfbench::writeSpans(s);
        std::fclose(s);
    }
    return 0;
}
