/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span marks one call into a simulator layer: its name ("layer.what"),
 * start and end on the process clock, the span that enclosed it, and the
 * run it belongs to. Spans are kept in memory while the benchmark runs
 * and written out once at the end; nothing is recorded inside the
 * simulator itself, only around the public calls the benchmark makes.
 *
 * One SpanLog is filled by one thread at a time (each traced run owns
 * its own log and the pass merges them afterwards), so no locking.
 */

#ifndef PERFBENCH_SPAN_HH
#define PERFBENCH_SPAN_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Nanoseconds since the first call in this process (steady clock). */
inline std::int64_t
nowNs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point origin = clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clock::now() - origin)
        .count();
}

struct SpanRecord
{
    const char *name = "";   //!< Static "layer.what" literal.
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;         //!< Index in the same log; -1 for a root.
    std::int64_t run = -1;   //!< Run id; -1 outside any run.

    double ms() const { return static_cast<double>(endNs - startNs) / 1e6; }
};

/** An ordered list of spans with a stack of the ones still open. */
class SpanLog
{
  public:
    int
    begin(const char *name, std::int64_t run)
    {
        SpanRecord span;
        span.name = name;
        span.parent = _open.empty() ? -1 : _open.back();
        span.run = run;
        span.startNs = nowNs();
        _spans.push_back(span);
        _open.push_back(static_cast<int>(_spans.size()) - 1);
        return _open.back();
    }

    void
    end(int index)
    {
        _spans[index].endNs = nowNs();
        _open.pop_back();
    }

    /** Move every span of @p other to the end of this log. */
    void
    append(const SpanLog &other)
    {
        const int base = static_cast<int>(_spans.size());
        for (SpanRecord span : other._spans) {
            if (span.parent >= 0)
                span.parent += base;
            _spans.push_back(span);
        }
    }

    const std::vector<SpanRecord> &spans() const { return _spans; }

  private:
    std::vector<SpanRecord> _spans;
    std::vector<int> _open;
};

/** RAII span: begins on construction, ends on destruction. */
class Span
{
  public:
    Span(SpanLog &log, const char *name, std::int64_t run = -1)
        : _log(log), _index(log.begin(name, run))
    {}
    ~Span() { _log.end(_index); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog &_log;
    int _index;
};

/** Layer of a span name: the text before the first '.'. */
inline std::string
spanLayer(const char *name)
{
    const std::string text(name);
    return text.substr(0, text.find('.'));
}

/**
 * Self time per layer in ms: each span's duration minus the part its
 * direct children cover, summed by layer.
 */
inline std::map<std::string, double>
selfTimeByLayer(const std::vector<SpanRecord> &spans)
{
    std::vector<std::int64_t> childNs(spans.size(), 0);
    for (const SpanRecord &span : spans)
        if (span.parent >= 0)
            childNs[span.parent] += span.endNs - span.startNs;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &span = spans[i];
        self[spanLayer(span.name)] +=
            static_cast<double>(span.endNs - span.startNs - childNs[i]) /
            1e6;
    }
    return self;
}

} // namespace perfbench

#endif // PERFBENCH_SPAN_HH
