/**
 * @file
 * In-memory span recorder for the benchmark's traced runs. A span is
 * one call into a layer: name, start, end (seconds since the recorder
 * started), the span that was open when it began, and a few numeric
 * attributes (work, cycles, bytes). Spans are kept in memory and
 * written as JSON when the run ends.
 *
 * Recording is off by default: every Scope then costs one branch, so
 * an untraced run executes the same code as a traced one.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span
{
    const char *name = "";
    int parent = -1;
    double start = 0;
    double end = 0;
    std::vector<std::pair<const char *, double>> attrs;
};

/** Seconds on the monotonic clock since the process started. */
double now();

/** Turn recording on or off (off drops nothing already recorded). */
void setTracing(bool on);

bool tracing();

/** Every span recorded so far, in start order. */
const std::vector<Span> &spans();

/** Write spans() as a JSON array to @p out. */
void writeSpans(std::FILE *out);

/** Records one span from construction to destruction when tracing. */
class Scope
{
  public:
    explicit Scope(const char *name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Attach a numeric attribute (ignored when not tracing). */
    void attr(const char *key, double value);

    /** Span id, or -1 when not tracing. */
    int id() const { return id_; }

  private:
    int id_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
