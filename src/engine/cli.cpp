#include "engine/cli.hh"

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/logging.hh"
#include "engine/fault_inject.hh"

namespace mg {

bool
CliOptions::has(const std::string &flag) const
{
    for (const std::string &a : rest) {
        if (a == flag)
            return true;
    }
    return false;
}

std::string
CliOptions::benchName(const std::string &base) const
{
    return scale == Scale::Ref ? base
                               : base + "_" + scaleName(scale);
}

namespace {

std::uint64_t
parseCount(const char *flag, const char *value)
{
    // strtoull would wrap negatives and accept empty strings.
    if (!value || !*value || *value == '-' || *value == '+')
        fatal("bad %s value '%s'", flag, value ? value : "");
    char *end = nullptr;
    unsigned long long v = std::strtoull(value, &end, 10);
    if (!end || *end)
        fatal("bad %s value '%s'", flag, value);
    return v;
}

} // namespace

CliOptions
parseCli(int argc, char **argv)
{
    CliOptions opt;
    auto next = [&](const std::string &flag, int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("%s requires a value", flag.c_str());
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--jobs" || a == "-j") {
            char *end = nullptr;
            long v = std::strtol(next(a, i), &end, 10);
            if (!end || *end || v < 0)
                fatal("bad job count '%s'", argv[i]);
            opt.jobs = static_cast<int>(v);
        } else if (a == "--json") {
            opt.jsonPath = next(a, i);
        } else if (a == "--scale") {
            opt.scale = parseScale(next(a, i));
        } else if (a == "--list-kernels") {
            fputs(kernelListing().c_str(), stdout);
            // NOLINTNEXTLINE(concurrency-mt-unsafe): CLI parse runs
            // single-threaded, before any worker exists
            exit(0);
        } else if (a == "--sample-interval") {
            opt.sampleInterval = parseCount("--sample-interval",
                                            next(a, i));
            if (opt.sampleInterval == 0)
                fatal("--sample-interval must be positive");
        } else if (a == "--sample-period") {
            opt.samplePeriod = parseCount("--sample-period", next(a, i));
        } else if (a == "--warmup") {
            opt.sampleWarmup = parseCount("--warmup", next(a, i));
        } else if (a == "--full") {
            opt.full = true;
        } else if (a == "--no-throughput") {
            opt.noThroughput = true;
        } else if (a == "--checkpoint-dir") {
            opt.checkpointDir = next(a, i);
        } else if (a == "--no-checkpoint-store") {
            opt.checkpointStore = false;
        } else if (a == "--checkpoint-cap-mb") {
            opt.checkpointCapMb = parseCount("--checkpoint-cap-mb",
                                             next(a, i));
            if (opt.checkpointCapMb == 0)
                fatal("--checkpoint-cap-mb must be positive");
        } else if (a == "--cell-timeout-s") {
            const char *v = next(a, i);
            char *end = nullptr;
            double s = std::strtod(v, &end);
            if (!end || *end || s < 0)
                fatal("bad --cell-timeout-s value '%s'", v);
            opt.cellTimeoutS = s;
        } else if (a == "--cell-retries") {
            opt.cellRetries = static_cast<int>(
                parseCount("--cell-retries", next(a, i)));
        } else if (a == "--cell-backoff-ms") {
            opt.cellBackoffMs = static_cast<int>(
                parseCount("--cell-backoff-ms", next(a, i)));
        } else if (a == "--journal-dir") {
            opt.journalDirOpt = next(a, i);
        } else if (a == "--no-journal") {
            opt.journal = false;
        } else if (a == "--fault-inject") {
            opt.faultSpec = next(a, i);
        } else if (a == "--dry-run") {
            opt.dryRun = true;
        } else if (a == "--critpath") {
            opt.critpath = true;
        } else if (a == "--trace") {
            opt.traceDepth = parseCount("--trace", next(a, i));
            opt.critpath = true;
        } else if (a == "--whatif") {
            opt.whatIf = next(a, i);
            if (opt.whatIf.empty())
                fatal("--whatif requires a key=val spec");
            opt.critpath = true;
        } else {
            opt.rest.push_back(std::move(a));
        }
    }
    return opt;
}

SamplingParams
CliOptions::samplingParams() const
{
    SamplingParams sp;
    if (full || sampleInterval == 0)
        return sp;   // disabled: full cycle-accurate simulation
    sp.enabled = true;
    sp.interval = sampleInterval;
    sp.period = samplePeriod ? samplePeriod : 12 * sampleInterval;
    sp.warmup = sampleWarmup != ~0ull ? sampleWarmup
                                      : 2 * sampleInterval;
    return sp;
}

std::string
CliOptions::journalDir() const
{
    if (!journal)
        return "";
    if (!journalDirOpt.empty())
        return journalDirOpt;
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read at startup only
    const char *env = std::getenv("MG_JOURNAL_DIR");
    return env && *env ? env : "";
}

void
CliOptions::configure(ExperimentEngine &engine) const
{
    if (checkpointStore && samplingParams().enabled) {
        CheckpointStoreConfig cfg;
        cfg.dir = checkpointDir;
        if (cfg.dir.empty()) {
            // NOLINTNEXTLINE(concurrency-mt-unsafe): read at startup only
            const char *env = std::getenv("MG_CHECKPOINT_DIR");
            cfg.dir = env && *env ? env : ".mg-cache/checkpoints";
        }
        if (checkpointCapMb)
            cfg.capBytes = checkpointCapMb << 20;
        engine.setCheckpointStore(
            std::make_shared<CheckpointStore>(std::move(cfg)));
    }

    FaultPolicy p;
    if (cellTimeoutS >= 0) {
        p.cellTimeoutS = cellTimeoutS;
    } else {
        // Tier-scaled defaults, generous enough that a healthy cell
        // never comes close — the deadline exists to catch hangs, not
        // to race honest work.
        switch (scale) {
          case Scale::Ref: p.cellTimeoutS = 600; break;
          case Scale::Long: p.cellTimeoutS = 3600; break;
          case Scale::Huge: p.cellTimeoutS = 14400; break;
        }
    }
    p.cellRetries = cellRetries;
    p.backoffMs = cellBackoffMs;
    engine.setFaultPolicy(p);

    engine.setJournalDir(journalDir());
    engine.setDryRun(dryRun);

    std::string spec = faultSpec;
    if (spec.empty()) {
        // NOLINTNEXTLINE(concurrency-mt-unsafe): read at startup only
        const char *env = std::getenv("MG_FAULT_SPEC");
        if (env)
            spec = env;
    }
    if (!spec.empty())
        FaultInjector::global().configure(spec);
}

void
CliOptions::applyColumns(SweepSpec &spec) const
{
    SamplingParams sp = samplingParams();
    for (SweepColumn &col : spec.columns) {
        if (!col.timing)
            continue;
        if (sp.enabled)
            col.config.sampling = sp;
        if (critpath) {
            col.config.critpath = true;
            col.config.traceDepth = traceDepth;
            col.config.whatIf = whatIf;
        }
    }
}

void
CliOptions::writeJson(SweepResult &r, const std::string &base) const
{
    r.emitThroughput = !noThroughput;
    std::string json = writeSweepJson(r, benchName(base), jsonPath);
    if (!json.empty())
        std::printf("wrote %s\n", json.c_str());
}

void
CliOptions::finish(SweepResult &r, const std::string &base) const
{
    std::printf("%s\n", throughputTable(r).c_str());
    std::string outcomes = outcomeSummary(r);
    if (!outcomes.empty())
        std::printf("%s\n", outcomes.c_str());
    writeJson(r, base);
}

} // namespace mg
