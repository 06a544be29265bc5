/**
 * @file
 * Event-trace exporters: Perfetto/Chrome trace-event JSON and the
 * per-error realignment forensics pass.
 *
 * Three consumers of one trace::EventTrace:
 *
 *  - perfettoTraceText(): a Chrome trace-event document (one instant-
 *    event thread per track, counter tracks for queue depths) loadable
 *    directly in ui.perfetto.dev or chrome://tracing. Timestamps are
 *    the global seq numbers (per-core cycle clocks are not comparable
 *    across cores); the real cycle and slice stamps ride in each
 *    event's args. Exact per-kind counts — including events the
 *    bounded rings had to drop — are embedded under the top-level
 *    "commguard" object. The text is streamed straight from each
 *    track's events in the canonical form Json::dump() gives (sorted
 *    keys), with no document tree in between; perfettoTraceJson() is
 *    its parsed view.
 *
 *  - forensicsJson(): joins each injected error (register flip or
 *    software-queue corruption) to its first downstream AM repair and
 *    reports the time-to-realign distribution (scheduler slices,
 *    items padded/discarded per repair episode). End-of-computation
 *    padding (the AM draining after a producer finished, a normal
 *    shutdown behavior) is recognized via the pending-header stamp on
 *    transitions into Pdg and excluded from repair episodes.
 *
 *  - traceConservationErrors(): cross-checks every conservation-mapped
 *    event count against the run's metric counters (docs/TRACING.md
 *    lists the mapping). An empty result is the proof that the trace
 *    and the PR 2 metrics registry saw the same run.
 *
 * The schema checks of the trace document and of the forensics
 * section live here too (sim/schema_check.hh).
 */

#ifndef COMMGUARD_SIM_TRACE_EXPORT_HH
#define COMMGUARD_SIM_TRACE_EXPORT_HH

#include <string>
#include <vector>

#include "common/event_trace.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "sim/schema_check.hh"

namespace commguard::sim
{

/**
 * Chrome/Perfetto trace-event document for @p trace as canonical JSON
 * text: byte-identical to Json::dump() of the same document.
 */
std::string perfettoTraceText(const trace::EventTrace &trace);

/**
 * Append perfettoTraceText(trace) to @p out. A cleared buffer keeps
 * its capacity, so a caller that writes trace after trace into the
 * same buffers reuses their pages instead of faulting in new ones.
 */
void appendPerfettoTrace(std::string &out, const trace::EventTrace &trace);

/** Json::parse(perfettoTraceText(trace)), for readers of the tree. */
Json perfettoTraceJson(const trace::EventTrace &trace);

/**
 * Per-error realignment forensics of @p trace (see file comment).
 * Exact when trace.dropped() == 0; the record carries the drop count
 * so consumers can tell.
 */
Json forensicsJson(const trace::EventTrace &trace);

/**
 * Event-count/metric-counter conservation check. Returns one message
 * per mismatch; empty means every mapped pair agreed exactly.
 */
std::vector<std::string>
traceConservationErrors(const trace::EventTrace &trace,
                        const metrics::MetricSnapshot &snapshot);

/**
 * Check a run record's forensics section: forensicsJson()'s members
 * and an empty conservation_errors (traceConservationErrors()) array.
 */
SchemaErrors forensicsErrors(const Json &forensics);

/**
 * Check a Perfetto trace document's text: the stream's events tally
 * with the exact commguard.event_counts (equal when nothing dropped).
 */
SchemaErrors checkPerfettoTrace(const std::string &text);

/**
 * Write a serialized trace document and a newline to @p path (warn on
 * I/O failure). Sweep workers stream @p serialized with
 * appendPerfettoTrace() off the main thread; the barrier just does
 * file I/O.
 */
void writeTraceFile(const std::string &path,
                    const std::string &serialized);

} // namespace commguard::sim

#endif // COMMGUARD_SIM_TRACE_EXPORT_HH
