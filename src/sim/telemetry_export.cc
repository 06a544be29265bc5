#include "sim/telemetry_export.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "common/telemetry.hh"
#include "sim/env_options.hh"
#include "sim/protection.hh"
#include "sim/run_export.hh"

namespace commguard::sim
{

namespace
{

double
monotonicSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** Finite plotting value for a quality sample (+inf dB = error-free
 *  output; the report caps it so the axis stays readable). */
double
plottableQuality(double quality_db)
{
    if (!std::isfinite(quality_db))
        return quality_db > 0 ? 120.0 : -20.0;
    return std::min(120.0, std::max(-20.0, quality_db));
}

/** Per-mode stage-profile series: per-sample increments, bucketed so
 *  the series never exceeds kMaxStagePoints positions. */
constexpr std::size_t kMaxStagePoints = 256;

struct StageSeries
{
    std::string label;  //!< "app seed=N" the series was taken from.
    std::vector<double> work;     //!< committedInsts per bucket.
    std::vector<double> blocked;  //!< blockedSlices per bucket.
    std::vector<double> repairs;  //!< Repair leaves per bucket.
};

StageSeries
extractStageSeries(const RunDescriptor &descriptor,
                   const telemetry::TelemetryRecorder &recorder)
{
    StageSeries series;
    series.label = descriptor.app->name + " seed=" +
                   std::to_string(descriptor.options.seed);

    // Classify every counter index once.
    enum class Kind : std::uint8_t { Other, Work, Blocked, Repair };
    const std::vector<std::string> &names = recorder.names();
    std::vector<Kind> kinds(names.size(), Kind::Other);
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string_view leaf = metrics::leafName(names[i]);
        if (leaf == "committedInsts")
            kinds[i] = Kind::Work;
        else if (leaf == "blockedSlices")
            kinds[i] = Kind::Blocked;
        else if (protection::isRepairCounter(names[i]))
            kinds[i] = Kind::Repair;
    }

    const auto &samples = recorder.samples();
    const std::size_t stride =
        samples.size() <= kMaxStagePoints
            ? 1
            : (samples.size() + kMaxStagePoints - 1) / kMaxStagePoints;
    const std::size_t points = (samples.size() + stride - 1) / stride;
    series.work.assign(points, 0.0);
    series.blocked.assign(points, 0.0);
    series.repairs.assign(points, 0.0);

    std::size_t position = 0;
    for (const telemetry::TelemetrySample &sample : samples) {
        const std::size_t bucket = position / stride;
        for (const auto &[index, delta] : sample.deltas) {
            switch (kinds[index]) {
            case Kind::Work:
                series.work[bucket] += static_cast<double>(delta);
                break;
            case Kind::Blocked:
                series.blocked[bucket] += static_cast<double>(delta);
                break;
            case Kind::Repair:
                series.repairs[bucket] += static_cast<double>(delta);
                break;
            case Kind::Other:
                break;
            }
        }
        ++position;
    }
    return series;
}

/** Process-wide HTML report accumulator (batches fold in over the
 *  whole process; the file is rewritten after each batch). */
struct ReportState
{
    std::mutex mutex;

    //!< mode -> mtbe -> plottable qualities (injected runs only).
    std::map<std::string, std::map<double, std::vector<double>>>
        quality;

    //!< mode -> stage profile of the first sampled run seen.
    std::map<std::string, StageSeries> stages;

    struct PoolRow
    {
        std::size_t runs = 0;
        unsigned jobs = 0;
        double seconds = 0.0;
        Count stolen = 0;
        Count waits = 0;
        Count wakeups = 0;
    };
    std::vector<PoolRow> pool;
    ThreadPool::Stats lastPoolStats{};
    Count totalRuns = 0;
};

ReportState &
reportState()
{
    static ReportState state;
    return state;
}

Json
reportDataJson(ReportState &state)
{
    Json quality = Json::object();
    for (const auto &[mode, curve] : state.quality) {
        Json points = Json::array();
        for (const auto &[mtbe, values] : curve) {
            double sum = 0.0;
            for (double v : values)
                sum += v;
            Json point = Json::array();
            point.arr().emplace_back(mtbe);
            point.arr().emplace_back(
                sum / static_cast<double>(values.size()));
            points.push(std::move(point));
        }
        quality[mode] = std::move(points);
    }

    Json stages = Json::object();
    for (const auto &[mode, series] : state.stages) {
        Json entry = Json::object();
        entry["label"] = Json(series.label);
        Json work = Json::array();
        Json blocked = Json::array();
        Json repairs = Json::array();
        for (double v : series.work)
            work.arr().emplace_back(v);
        for (double v : series.blocked)
            blocked.arr().emplace_back(v);
        for (double v : series.repairs)
            repairs.arr().emplace_back(v);
        entry["work"] = std::move(work);
        entry["blocked"] = std::move(blocked);
        entry["repairs"] = std::move(repairs);
        stages[mode] = std::move(entry);
    }

    Json pool = Json::array();
    for (const ReportState::PoolRow &row : state.pool) {
        Json entry = Json::object();
        entry["runs"] = Json(Count{row.runs});
        entry["jobs"] = Json(Count{row.jobs});
        entry["seconds"] = Json(row.seconds);
        entry["stolen"] = Json(row.stolen);
        entry["waits"] = Json(row.waits);
        entry["wakeups"] = Json(row.wakeups);
        pool.push(std::move(entry));
    }

    Json data = Json::object();
    data["telemetry_schema_version"] =
        Json(telemetry::kTelemetrySchemaVersion);
    data["total_runs"] = Json(state.totalRuns);
    data["quality"] = std::move(quality);
    data["stages"] = std::move(stages);
    data["pool"] = std::move(pool);
    return data;
}

/** The report's static markup + inline-JS renderer. The JS reads the
 *  embedded DATA object and draws three SVG panels; no external
 *  assets, so the file opens anywhere. */
const char *kReportHtmlPrefix = R"html(<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>CommGuard telemetry report</title>
<style>
 body { font: 14px/1.4 system-ui, sans-serif; margin: 24px;
        background: #fafafa; color: #222; }
 h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px; }
 .panel { background: #fff; border: 1px solid #ddd; border-radius: 6px;
          padding: 12px; margin-bottom: 16px; }
 .legend span { display: inline-block; margin-right: 14px; }
 .swatch { display: inline-block; width: 10px; height: 10px;
           border-radius: 2px; margin-right: 4px; }
 svg { width: 100%; height: auto; }
 .note { color: #666; font-size: 12px; }
</style>
</head>
<body>
<h1>CommGuard telemetry report</h1>
<p class="note" id="summary"></p>
<div class="panel"><h2>Quality vs. injected-error rate</h2>
 <div class="legend" id="quality-legend"></div>
 <svg id="quality" viewBox="0 0 720 280"></svg>
 <p class="note">Mean output quality (dB, capped at 120 for error-free
 runs) per protection mode against MTBE (mean instructions between
 injected errors, log scale; lower MTBE = more errors).</p></div>
<div class="panel"><h2>Stage profile over simulated time</h2>
 <div id="stages"></div>
 <p class="note">Per-sample increments from one representative run per
 mode: committed instructions (work), fully blocked scheduler slices,
 and repaired items (padded + discarded + voted + corrected), stacked
 and normalized per sample bucket.</p></div>
<div class="panel"><h2>Host pool utilization</h2>
 <div id="pool"></div>
 <p class="note">Per-batch ThreadPool deltas (host-side only; never
 part of per-run records, see docs/METRICS.md).</p></div>
<script id="data" type="application/json">
)html";

const char *kReportHtmlSuffix = R"html(
</script>
<script>
'use strict';
const DATA = JSON.parse(document.getElementById('data').textContent);
const COLORS = ['#2266cc', '#cc5522', '#228844', '#8844cc',
                '#aa8800', '#cc2266', '#227788', '#555555'];
const NS = 'http://www.w3.org/2000/svg';
function el(parent, tag, attrs) {
  const node = document.createElementNS(NS, tag);
  for (const k in attrs) node.setAttribute(k, attrs[k]);
  parent.appendChild(node);
  return node;
}
function text(parent, x, y, s, anchor) {
  const node = el(parent, 'text', {x: x, y: y, 'font-size': 10,
                                   fill: '#666',
                                   'text-anchor': anchor || 'middle'});
  node.textContent = s;
  return node;
}

document.getElementById('summary').textContent =
  DATA.total_runs + ' runs folded into this report (schema v' +
  DATA.telemetry_schema_version + ').';

// Panel 1: quality vs. MTBE, one polyline per mode, log-x.
(function qualityChart() {
  const svg = document.getElementById('quality');
  const legend = document.getElementById('quality-legend');
  const modes = Object.keys(DATA.quality);
  if (!modes.length) { text(svg, 360, 140, 'no injected runs'); return; }
  const W = 720, H = 280, L = 52, R = 12, T = 12, B = 34;
  let xs = [], ys = [];
  modes.forEach(m => DATA.quality[m].forEach(p => {
    xs.push(Math.log(p[0])); ys.push(p[1]); }));
  const x0 = Math.min(...xs), x1 = Math.max(...xs) || x0 + 1;
  const y0 = Math.min(0, ...ys), y1 = Math.max(10, ...ys);
  const px = v => L + (x1 === x0 ? 0.5 : (Math.log(v) - x0) / (x1 - x0))
                      * (W - L - R);
  const py = v => H - B - (v - y0) / (y1 - y0) * (H - T - B);
  el(svg, 'line', {x1: L, y1: H - B, x2: W - R, y2: H - B,
                   stroke: '#999'});
  el(svg, 'line', {x1: L, y1: T, x2: L, y2: H - B, stroke: '#999'});
  text(svg, (L + W - R) / 2, H - 8, 'MTBE (insts, log)');
  for (let g = 0; g <= 4; ++g) {
    const v = y0 + (y1 - y0) * g / 4;
    text(svg, L - 6, py(v) + 3, v.toFixed(0), 'end');
    el(svg, 'line', {x1: L, y1: py(v), x2: W - R, y2: py(v),
                     stroke: '#eee'});
  }
  modes.forEach((m, i) => {
    const c = COLORS[i % COLORS.length];
    const pts = DATA.quality[m]
      .map(p => px(p[0]).toFixed(1) + ',' + py(p[1]).toFixed(1))
      .join(' ');
    el(svg, 'polyline', {points: pts, fill: 'none', stroke: c,
                         'stroke-width': 2});
    DATA.quality[m].forEach(p => el(svg, 'circle',
      {cx: px(p[0]), cy: py(p[1]), r: 2.5, fill: c}));
    legend.insertAdjacentHTML('beforeend',
      '<span><span class="swatch" style="background:' + c +
      '"></span>' + m + '</span>');
  });
})();

// Panel 2: per-mode stacked areas of normalized stage shares.
(function stageChart() {
  const host = document.getElementById('stages');
  const modes = Object.keys(DATA.stages);
  if (!modes.length) {
    host.textContent = 'no sampled runs';
    return;
  }
  const LAYERS = [['work', '#7aa6d6'], ['blocked', '#d6a37a'],
                  ['repairs', '#c97a7a']];
  modes.forEach(m => {
    const s = DATA.stages[m];
    const n = s.work.length;
    const W = 720, H = 120, L = 8, R = 8, T = 16, B = 8;
    const head = document.createElement('div');
    head.className = 'note';
    head.textContent = m + ' — ' + s.label + ' (' + n + ' buckets)';
    host.appendChild(head);
    const svg = document.createElementNS(NS, 'svg');
    svg.setAttribute('viewBox', '0 0 ' + W + ' ' + H);
    host.appendChild(svg);
    if (!n) { text(svg, W / 2, H / 2, 'empty series'); return; }
    const px = i => L + (n === 1 ? 0.5 : i / (n - 1)) * (W - L - R);
    let base = new Array(n).fill(0);
    const totals = s.work.map((v, i) =>
      v + s.blocked[i] + s.repairs[i]);
    LAYERS.forEach(layer => {
      const values = s[layer[0]];
      const top = base.map((b, i) =>
        b + (totals[i] ? values[i] / totals[i] : 0));
      let d = '';
      for (let i = 0; i < n; ++i)
        d += (i ? 'L' : 'M') + px(i).toFixed(1) + ' ' +
             (H - B - base[i] * (H - T - B)).toFixed(1);
      for (let i = n - 1; i >= 0; --i)
        d += 'L' + px(i).toFixed(1) + ' ' +
             (H - B - top[i] * (H - T - B)).toFixed(1);
      el(svg, 'path', {d: d + 'Z', fill: layer[1], stroke: 'none',
                       'fill-opacity': 0.85});
      base = top;
    });
  });
  host.insertAdjacentHTML('beforeend',
    '<div class="legend">' + LAYERS.map(l =>
      '<span><span class="swatch" style="background:' + l[1] +
      '"></span>' + l[0] + '</span>').join('') + '</div>');
})();

// Panel 3: one utilization row per batch.
(function poolStrip() {
  const host = document.getElementById('pool');
  if (!DATA.pool.length) {
    host.textContent = 'no batches recorded';
    return;
  }
  const maxRuns = Math.max(...DATA.pool.map(r => r.runs), 1);
  DATA.pool.forEach((r, i) => {
    const row = document.createElement('div');
    const width = Math.max(2, 100 * r.runs / maxRuns);
    row.innerHTML =
      '<span class="note">batch ' + i + ': ' + r.runs + ' runs, ' +
      r.jobs + ' jobs, ' + r.seconds.toFixed(2) + 's — stolen ' +
      r.stolen + ', waits ' + r.waits + ', idle ' + r.wakeups +
      '</span><div style="background:#7aa6d6;height:6px;width:' +
      width + '%;border-radius:3px"></div>';
    host.appendChild(row);
  });
})();
</script>
</body>
</html>
)html";

} // namespace

std::vector<Json>
telemetryRecordsJson(const RunDescriptor &descriptor,
                     const RunOutcome &outcome, Count run_index)
{
    std::vector<Json> records;
    const auto &recorder = outcome.telemetry;
    if (recorder == nullptr)
        return records;

    const std::vector<std::string> &names = recorder->names();
    for (const telemetry::TelemetrySample &sample :
         recorder->samples()) {
        Json record = Json::object();
        record["telemetry_schema_version"] =
            Json(telemetry::kTelemetrySchemaVersion);
        putDescriptorMembers(record, descriptor);
        record["run_index"] = Json(run_index);
        record["sample"] = Json(sample.index);
        record["slice"] = Json(sample.slice);
        record["cycles"] = Json(sample.cycles);
        record["final"] = Json(sample.final);

        Json deltas = Json::object();
        for (const auto &[index, delta] : sample.deltas)
            deltas[names[index]] = Json(delta);
        record["deltas"] = std::move(deltas);

        if (sample.final) {
            record["samples_taken"] = Json(recorder->samplesTaken());
            record["samples_dropped"] =
                Json(recorder->droppedSamples());
            Json cumulative = Json::object();
            const std::vector<Count> totals = recorder->cumulative();
            for (std::size_t i = 0; i < totals.size(); ++i) {
                if (totals[i] != 0)
                    cumulative[names[i]] = Json(totals[i]);
            }
            record["cumulative"] = std::move(cumulative);
        }
        records.push_back(std::move(record));
    }
    return records;
}

std::string
telemetryLines(const RunDescriptor &descriptor,
               const RunOutcome &outcome, Count run_index)
{
    std::string lines;
    for (const Json &record :
         telemetryRecordsJson(descriptor, outcome, run_index)) {
        if (!lines.empty())
            lines += '\n';
        lines += record.dump();
    }
    return lines;
}

namespace
{

/**
 * checkTelemetryStream()'s state: the run whose records are streaming
 * past (runs are contiguous, so one suffices) and the closed runs.
 */
struct TelemetryStreamCheck
{
    bool active = false;
    Count runIndex = 0;
    Count records = 0;
    Count nextSample = 0;
    Count lastSlice = 0;
    Count lastCycles = 0;
    std::map<std::string, Count> deltaSums;
    std::set<Count> finished;

    SchemaErrors checkRecord(const Json &record);
    SchemaErrors finishRun(const Json &record);
};

SchemaErrors
TelemetryStreamCheck::checkRecord(const Json &record)
{
    static constexpr SchemaMember kSampleMembers[] = {
        {"run_index", JsonKind::Count}, {"sample", JsonKind::Count},
        {"slice", JsonKind::Count},     {"cycles", JsonKind::Count},
        {"final", JsonKind::Bool},      {"deltas", JsonKind::Object},
    };
    SchemaErrors errors = descriptorErrors(record);
    checkVersion(record, "telemetry_schema_version",
                 telemetry::kTelemetrySchemaVersion, errors);
    const auto members = requireMembers(record, kSampleMembers, errors);
    if (!members)
        return errors;
    const auto &[run_json, sample_json, slice_json, cycles_json,
                 final_flag, deltas] = *members;
    checkCountMembers(*deltas, errors);
    if (!errors.empty())
        return errors;
    const Count run = run_json->counter();
    const Count sample = sample_json->counter();
    const Count slice = slice_json->counter();
    const Count cycles = cycles_json->counter();

    if (!active || run != runIndex) {
        // A new run begins; the previous one must have been closed by
        // its final record, and run indices must never interleave.
        if (active || finished.count(run) > 0)
            return {"run " + std::to_string(run) + " starts before run " +
                    std::to_string(runIndex) +
                    "'s final record, or after its own (records must "
                    "be contiguous per run)"};
        active = true;
        runIndex = run;
        records = 0;
        nextSample = sample;
        deltaSums.clear();
    } else if (slice <= lastSlice || cycles < lastCycles) {
        return {"slice/cycles " + std::to_string(slice) + "/" +
                std::to_string(cycles) + " after " +
                std::to_string(lastSlice) + "/" +
                std::to_string(lastCycles) +
                " (slices must increase, cycles must not decrease)"};
    }
    if (sample != nextSample)
        return {"sample index " + std::to_string(sample) +
                " is not consecutive (expected " +
                std::to_string(nextSample) + ")"};
    ++nextSample;
    ++records;
    lastSlice = slice;
    lastCycles = cycles;
    for (const auto &[name, delta] : deltas->obj()) {
        if (delta.counter() == 0)
            return {"deltas['" + name + "'] is zero (deltas are sparse)"};
        deltaSums[name] += delta.counter();
    }
    return final_flag->boolean() ? finishRun(record) : SchemaErrors{};
}

SchemaErrors
TelemetryStreamCheck::finishRun(const Json &record)
{
    // The final record must reconcile: sample accounting, and, when
    // nothing was folded out of the ring, conservation of every
    // counter (sum of streamed deltas == final cumulative totals).
    static constexpr SchemaMember kFinalMembers[] = {
        {"samples_taken", JsonKind::Count},
        {"samples_dropped", JsonKind::Count},
        {"cumulative", JsonKind::Object},
    };
    SchemaErrors errors;
    const auto members = requireMembers(record, kFinalMembers, errors);
    if (!members)
        return errors;
    const auto &[taken, dropped, cumulative] = *members;
    if (taken->counter() != dropped->counter() + records)
        return {"samples_taken " + taken->dump() + " != dropped " +
                dropped->dump() + " + " + std::to_string(records) +
                " streamed records"};
    if (dropped->counter() == 0 && checkCountMembers(*cumulative, errors)) {
        for (const auto &[name, total] : cumulative->obj()) {
            const auto it = deltaSums.find(name);
            const Count summed = it == deltaSums.end() ? 0 : it->second;
            if (summed != total.counter())
                errors.push_back("conservation violated for '" + name +
                                 "': deltas sum to " +
                                 std::to_string(summed) +
                                 ", cumulative says " + total.dump());
        }
        for (const auto &[name, summed] : deltaSums) {
            if (summed != 0 && cumulative->find(name) == nullptr)
                errors.push_back("counter '" + name +
                                 "' has streamed deltas (" +
                                 std::to_string(summed) +
                                 ") but no cumulative entry");
        }
    }
    if (errors.empty()) {
        active = false;
        finished.insert(runIndex);
    }
    return errors;
}

} // namespace

SchemaErrors
checkTelemetryStream(const std::string &text)
{
    TelemetryStreamCheck stream;
    SchemaErrors errors = checkJsonlLines(
        text, [&](const Json &record, std::size_t) {
            return stream.checkRecord(record);
        });
    if (stream.active)
        errors.push_back("run " + std::to_string(stream.runIndex) +
                         " is missing its final record at the end of "
                         "the stream");
    return errors;
}

void
telemetryReportAdd(const std::vector<RunDescriptor> &batch,
                   const std::vector<RunOutcome> &outcomes,
                   const ThreadPool::Stats &pool_stats, unsigned jobs,
                   double elapsed_seconds)
{
    ReportState &state = reportState();
    std::lock_guard<std::mutex> lock(state.mutex);

    for (std::size_t i = 0; i < batch.size(); ++i) {
        const RunDescriptor &descriptor = batch[i];
        const RunOutcome &outcome = outcomes[i];
        const std::string mode =
            protection::protectionModeName(descriptor.options.mode);
        ++state.totalRuns;

        if (descriptor.options.injectErrors) {
            state.quality[mode][descriptor.options.mtbe].push_back(
                plottableQuality(outcome.qualityDb));
        }
        if (outcome.telemetry != nullptr &&
            state.stages.find(mode) == state.stages.end()) {
            state.stages.emplace(
                mode,
                extractStageSeries(descriptor, *outcome.telemetry));
        }
    }

    ReportState::PoolRow row;
    row.runs = batch.size();
    row.jobs = jobs;
    row.seconds = elapsed_seconds;
    auto delta = [](Count now, Count before) {
        return now >= before ? now - before : 0;
    };
    row.stolen =
        delta(pool_stats.tasksStolen, state.lastPoolStats.tasksStolen);
    row.waits =
        delta(pool_stats.queueWaits, state.lastPoolStats.queueWaits);
    row.wakeups = delta(pool_stats.idleWakeups,
                        state.lastPoolStats.idleWakeups);
    state.lastPoolStats = pool_stats;
    state.pool.push_back(row);
}

void
writeTelemetryReport(const std::string &path)
{
    ReportState &state = reportState();
    std::string data;
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        data = reportDataJson(state).dump();
    }

    std::ofstream out(path);
    if (!out) {
        warn("telemetry_export: cannot write '" + path + "'");
        return;
    }
    out << kReportHtmlPrefix << data << kReportHtmlSuffix;
}

namespace
{

/**
 * The one status line currently showing on stderr (at most one board
 * is live at a time; a second one simply takes over the slot). The
 * mutex coordinates the owner's repaints with the logging pre-emit
 * hook, which fires on any thread that warns. Lock order: the logging
 * module's internal lock is taken first (the hook runs under it), then
 * this one; StatusLine methods never call the logging API while
 * holding it.
 */
struct ActiveStatusLine
{
    std::mutex mutex;
    StatusLine *line = nullptr;
};

ActiveStatusLine &
activeStatusLine()
{
    static ActiveStatusLine active;
    return active;
}

std::once_flag statusLineHookOnce;

} // namespace

void
StatusLine::clearActiveLine()
{
    ActiveStatusLine &active = activeStatusLine();
    std::lock_guard<std::mutex> lock(active.mutex);
    StatusLine *line = active.line;
    if (line == nullptr || !line->_dirty)
        return;
    std::fprintf(stderr, "\r%*s\r",
                 static_cast<int>(line->_lastWidth), "");
    std::fflush(stderr);
    line->_dirty = false;
    line->_lastWidth = 0;
    line->_nextPrint = 0.0;  // Repaint on the owner's next update().
}

StatusLine::~StatusLine()
{
    ActiveStatusLine &active = activeStatusLine();
    std::lock_guard<std::mutex> lock(active.mutex);
    if (active.line == this)
        active.line = nullptr;
}

void
StatusLine::update(const std::string &text)
{
    if (!_enabled)
        return;
    std::call_once(statusLineHookOnce, [] {
        setLogPreEmitHook(&StatusLine::clearActiveLine);
    });
    ActiveStatusLine &active = activeStatusLine();
    std::lock_guard<std::mutex> lock(active.mutex);
    const double now = monotonicSeconds();
    if (now < _nextPrint)
        return;
    _nextPrint = now + 0.25;
    std::string padded = text;
    if (padded.size() < _lastWidth)
        padded.append(_lastWidth - padded.size(), ' ');
    std::fprintf(stderr, "\r%s", padded.c_str());
    std::fflush(stderr);
    _lastWidth = text.size();
    _dirty = true;
    active.line = this;
}

void
StatusLine::finish(const std::string &text)
{
    if (!_enabled)
        return;
    ActiveStatusLine &active = activeStatusLine();
    std::lock_guard<std::mutex> lock(active.mutex);
    if (!_dirty && text.empty()) {
        if (active.line == this)
            active.line = nullptr;
        return;
    }
    std::string padded = text;
    if (padded.size() < _lastWidth)
        padded.append(_lastWidth - padded.size(), ' ');
    std::fprintf(stderr, _dirty ? "\r%s\n" : "%s\n", padded.c_str());
    std::fflush(stderr);
    _lastWidth = 0;
    _nextPrint = 0.0;
    _dirty = false;
    if (active.line == this)
        active.line = nullptr;
}

std::string
formatRateEta(std::size_t done, std::size_t total,
              double elapsed_seconds)
{
    // A zero-done batch or a sub-millisecond elapsed window has no
    // meaningful rate; rendering the division would print inf/garbage.
    constexpr double kMinElapsed = 1e-3;
    if (done == 0 || elapsed_seconds < kMinElapsed)
        return "--/s  eta --";
    const double rate =
        static_cast<double>(done) / elapsed_seconds;
    if (!std::isfinite(rate) || rate <= 0.0)
        return "--/s  eta --";
    const double eta =
        static_cast<double>(total - done) / rate;
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.1f/s  eta %.0fs", rate,
                  std::isfinite(eta) ? eta : 0.0);
    return buffer;
}

bool
SweepHealthBoard::enabledFromEnv()
{
    const int forced = EnvOptions::get().healthBoard;
    if (forced >= 0)
        return forced != 0;
    return isatty(fileno(stderr)) != 0;
}

void
SweepHealthBoard::attach(SweepRunner &runner)
{
    _runner = &runner;
    _batchBaseStats = runner.poolStats();
    runner.setOutcomeObserver(
        [this](std::size_t done, std::size_t total,
               const RunDescriptor &descriptor,
               const RunOutcome &outcome) {
            observe(done, total, descriptor, outcome);
        });
}

void
SweepHealthBoard::observe(std::size_t done, std::size_t total,
                          const RunDescriptor &descriptor,
                          const RunOutcome &outcome)
{
    const double now = monotonicSeconds();
    if (done <= _lastDone || _lastDone == 0) {
        // First completion of a new batch.
        _batchStart = now;
        _batchBaseStats = _runner->poolStats();
        _modes.clear();
    }
    _lastDone = done == total ? 0 : done;

    ModeAggregate &aggregate =
        _modes[protection::protectionModeName(descriptor.options.mode)];
    ++aggregate.runs;
    aggregate.repairs += protection::repairTotal(outcome.snapshot);

    const ThreadPool::Stats stats = _runner->poolStats();
    auto delta = [](Count a, Count b) { return a >= b ? a - b : 0; };

    std::ostringstream text;
    text << "[board] " << done << "/" << total << " runs  ";
    char buffer[64];
    text << formatRateEta(done, total, now - _batchStart)
         << "  | pool stolen "
         << delta(stats.tasksStolen, _batchBaseStats.tasksStolen)
         << " waits "
         << delta(stats.queueWaits, _batchBaseStats.queueWaits)
         << " idle "
         << delta(stats.idleWakeups, _batchBaseStats.idleWakeups)
         << " |";
    for (const auto &[mode, entry] : _modes) {
        std::snprintf(buffer, sizeof buffer, " %s %.1f rep/run",
                      mode.c_str(),
                      static_cast<double>(entry.repairs) /
                          static_cast<double>(entry.runs));
        text << buffer;
    }

    if (done == total)
        _line.finish(text.str());
    else
        _line.update(text.str());
}

} // namespace commguard::sim
