#include "machine/multicore.hh"

#include "common/logging.hh"

namespace commguard
{

Multicore::Multicore(MachineConfig config)
    : _config(config),
      _timeoutsFired(_metrics.counter("machine/timeoutsFired")),
      _deadlockBreaks(_metrics.counter("machine/deadlockBreaks"))
{
    if (_config.traceEvents) {
        _eventTrace = std::make_shared<trace::EventTrace>(
            _config.traceCapacityPerTrack);
        _machineTrack = &_eventTrace->addTrack("machine");
    }
    if (_config.telemetrySlices > 0) {
        _telemetry = std::make_shared<telemetry::TelemetryRecorder>(
            telemetry::TelemetryConfig{_config.telemetrySlices,
                                       _config.telemetryRingCapacity});
    }
}

Core &
Multicore::addCore(const std::string &name)
{
    const CoreId id = static_cast<CoreId>(_cores.size());
    _cores.push_back(std::make_unique<Core>(id, name));
    Core &core = *_cores.back();
    core.setMemoryPool(_coreMemoryPool);
    core.setTiming(_config.timing);
    core.setPpu(_config.ppu);
    core.counters().linkTo(_metrics, "node/" + name);
    _metrics.link("node/" + name + "/errorsInjected",
                  core.injector().errorsInjectedCounter());
    if (_eventTrace != nullptr) {
        _tracers.push_back(std::make_unique<EventTracer>(
            *_eventTrace, _eventTrace->addTrack(name)));
        core.setTraceSink(_tracers.back().get());
    }
    return core;
}

QueueBase &
Multicore::addQueue(std::unique_ptr<QueueBase> queue)
{
    _queues.push_back(std::move(queue));
    _queues.back()->counters().linkTo(
        _metrics, "queue/" + _queues.back()->name());
    if (_eventTrace != nullptr)
        _eventTrace->registerQueue(_queues.back().get(),
                                   _queues.back()->name());
    return *_queues.back();
}

CommBackend &
Multicore::addBackend(std::unique_ptr<CommBackend> backend)
{
    _backends.push_back(std::move(backend));
    return *_backends.back();
}

CoreRuntime &
Multicore::addRuntime(Core &core, CommBackend &backend,
                      Count total_frames)
{
    core.setBackend(&backend);
    // Each backend prepends its own namespace ("cg/", "repl/", ...).
    backend.linkMetrics(_metrics, core.name());
    _runtimes.push_back(std::make_unique<CoreRuntime>(
        core, backend, total_frames, _config.timing));
    return *_runtimes.back();
}

Multicore::RoundStatus
Multicore::stepRound()
{
    if (_blockedRounds.size() != _runtimes.size())
        _blockedRounds.resize(_runtimes.size(), 0);

    bool all_finished = true;
    bool any_progress = false;
    if (_eventTrace != nullptr)
        _eventTrace->beginSlice(_round);
    // Simulated-time sampling cadence: keyed on the deterministic
    // round counter so the series is independent of CG_JOBS.
    if (_telemetry != nullptr && _round > 0 &&
        _round % _config.telemetrySlices == 0) {
        _telemetry->sample(_metrics, _round, totalCycles());
    }
    ++_round;

    for (std::size_t i = 0; i < _runtimes.size(); ++i) {
        CoreRuntime &runtime = *_runtimes[i];
        if (runtime.finished())
            continue;
        all_finished = false;

        const CoreRuntime::StepResult step =
            runtime.step(_config.sliceInstructions);
        if (step.progressed) {
            any_progress = true;
            _blockedRounds[i] = 0;
        } else if (step.blocked) {
            ++runtime.core().counters().blockedSlices;
            if (++_blockedRounds[i] >= _config.timeoutRounds) {
                // Queue-manager timeout (paper §5.1). Recording at
                // this one site makes the event count equal
                // machine/timeoutsFired by construction.
                if (_eventTrace != nullptr) {
                    _eventTrace->record(
                        *_machineTrack, runtime.core().cycles(),
                        trace::EventKind::QmTimeout, 0,
                        static_cast<std::uint16_t>(i),
                        static_cast<Word>(runtime.core().id()));
                }
                runtime.forceTimeout();
                ++_timeoutsFired;
                _blockedRounds[i] = 0;
            }
        }
        if (runtime.finished())
            any_progress = true;
    }

    if (all_finished)
        return RoundStatus::AllFinished;

    if (!any_progress) {
        // System-wide deadlock (e.g., corrupted full/empty views,
        // Fig. 3b): break it by timing out every stuck thread.
        ++_deadlockBreaks;
        if (_eventTrace != nullptr) {
            _eventTrace->record(*_machineTrack, 0,
                                trace::EventKind::DeadlockBreak);
        }
        for (auto &runtime : _runtimes) {
            if (!runtime->finished()) {
                if (_eventTrace != nullptr) {
                    _eventTrace->record(
                        *_machineTrack, runtime->core().cycles(),
                        trace::EventKind::QmTimeout, 1, 0,
                        static_cast<Word>(runtime->core().id()));
                }
                runtime->forceTimeout();
                ++_timeoutsFired;
            }
        }
    }

    if (totalCommittedInsts() > _config.globalWatchdogInsts) {
        warn("multicore: global instruction watchdog tripped; "
             "aborting run");
        return RoundStatus::WatchdogAbort;
    }
    return RoundStatus::Running;
}

MachineRunResult
Multicore::finish()
{
    // End-of-run sample: makes the recorder's cumulative view
    // reconcile 1:1 with the run's MetricSnapshot.
    if (_telemetry != nullptr)
        _telemetry->sample(_metrics, _round, totalCycles(), true);

    MachineRunResult result;
    result.completed = allRuntimesFinished();
    result.totalInstructions = totalCommittedInsts();
    result.totalCycles = totalCycles();
    result.timeoutsFired = _timeoutsFired;
    result.deadlockBreaks = _deadlockBreaks;
    return result;
}

MachineRunResult
Multicore::run()
{
    while (stepRound() == RoundStatus::Running) {
    }
    return finish();
}

bool
Multicore::allRuntimesFinished() const
{
    for (const auto &runtime : _runtimes)
        if (!runtime->finished())
            return false;
    return true;
}

Count
Multicore::totalCommittedInsts() const
{
    Count total = 0;
    for (const auto &core : _cores)
        total += core->counters().committedInsts;
    return total;
}

Cycle
Multicore::totalCycles() const
{
    Cycle total = 0;
    for (const auto &core : _cores)
        total += core->cycles();
    return total;
}

} // namespace commguard
