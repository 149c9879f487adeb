#include "spans.hh"

#include <chrono>

namespace perfbench {

namespace {

const auto origin = std::chrono::steady_clock::now();
bool on = false;
std::vector<Span> recorded;
// The sweep runs at --jobs 1, where the engine executes every cell on
// the calling thread, so one stack of open spans serves the run.
std::vector<int> open;

} // namespace

double
now()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin)
        .count();
}

void
setTracing(bool t)
{
    on = t;
}

bool
tracing()
{
    return on;
}

const std::vector<Span> &
spans()
{
    return recorded;
}

void
writeSpans(std::FILE *out)
{
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < recorded.size(); ++i) {
        const Span &s = recorded[i];
        std::fprintf(out,
                     "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                     "\"start\": %.9f, \"end\": %.9f",
                     i, s.name, s.parent, s.start, s.end);
        for (const auto &[k, v] : s.attrs)
            std::fprintf(out, ", \"%s\": %.17g", k, v);
        std::fprintf(out, "}%s\n", i + 1 < recorded.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
}

Scope::Scope(const char *name)
{
    if (!on)
        return;
    id_ = static_cast<int>(recorded.size());
    Span s;
    s.name = name;
    s.parent = open.empty() ? -1 : open.back();
    recorded.push_back(std::move(s));
    open.push_back(id_);
    // Read the clock last, so the bookkeeping above is not charged to
    // the span.
    recorded[static_cast<std::size_t>(id_)].start = now();
}

Scope::~Scope()
{
    if (id_ < 0)
        return;
    recorded[static_cast<std::size_t>(id_)].end = now();
    open.pop_back();
}

void
Scope::attr(const char *key, double value)
{
    if (id_ >= 0)
        recorded[static_cast<std::size_t>(id_)].attrs.emplace_back(key,
                                                                   value);
}

} // namespace perfbench
