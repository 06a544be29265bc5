#include "streamit/loader.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/logging.hh"

namespace commguard::streamit
{

namespace
{

/** Derive an independent per-core injector seed (paper §6). */
std::uint64_t
coreSeed(std::uint64_t base, int core)
{
    std::uint64_t x =
        base + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(
                                           core + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

LoadedApp
loadGraph(const StreamGraph &graph, const std::vector<Word> &input,
          Count steady_iterations, const LoadOptions &options,
          LoaderScratch *scratch)
{
    const std::string structure_error = graph.validateStructure();
    if (!structure_error.empty())
        fatal("loadGraph: " + structure_error);

    const RepetitionVector reps = solveRepetitions(graph);
    if (!reps.ok)
        fatal("loadGraph: " + reps.error);

    // Everything mode-dependent comes from the registry descriptor:
    // the edge-queue substrate, the backend factory, the source
    // framing, and the loader cost/capacity hooks.
    const protection::ModeDescriptor &desc =
        protection::ProtectionRegistry::instance().describe(
            options.mode);
    const int replicas = std::max(options.replicas, 2);

    LoadedApp app;
    app.frames = analyzeFrames(graph, reps);
    app.steadyIterations = steady_iterations;
    app.machine = std::make_unique<Multicore>(options.machine);
    Multicore &machine = *app.machine;
    RecyclePool<QueueWord> *queue_pool =
        scratch != nullptr ? &scratch->queueWords : nullptr;
    machine.setCoreMemoryPool(
        scratch != nullptr ? &scratch->coreMemory : nullptr);

    const int num_nodes = graph.numNodes();
    const Count frame_scale = options.frameScale ? options.frameScale : 1;

    // Per-node frame domains (SS5.4); uniform by default.
    if (!options.perNodeFrameScale.empty() &&
        options.perNodeFrameScale.size() !=
            static_cast<std::size_t>(num_nodes)) {
        fatal("loadGraph: perNodeFrameScale must have one entry per "
              "node");
    }
    auto node_scale = [&](int node) -> Count {
        if (options.perNodeFrameScale.empty())
            return frame_scale;
        const Count s = options.perNodeFrameScale[node];
        return s ? s : 1;
    };

    // Heterogeneous error rates (docs/SERVICE.md); uniform by default.
    if (!options.perCoreMtbe.empty() &&
        options.perCoreMtbe.size() !=
            static_cast<std::size_t>(num_nodes)) {
        fatal("loadGraph: perCoreMtbe must have one entry per node");
    }
    auto node_mtbe = [&](int node) -> double {
        if (options.perCoreMtbe.empty())
            return options.mtbe;
        const double m = options.perCoreMtbe[node];
        if (!(m > 0.0))
            fatal("loadGraph: perCoreMtbe entries must be positive");
        return m;
    };

    // ------------------------------------------------------------------
    // Input device: the source stream, framed per the mode (and only
    // when the source edge is guarded at all). Batch loads pre-fill it
    // here; a streaming source is appended by the service driver.
    // ------------------------------------------------------------------
    const Count items_per_inv = app.frames.inputItemsPerFrame;
    const Count needed = items_per_inv * steady_iterations;
    app.sourceFramer = protection::SourceFramer(
        options.guardSourceEdge ? desc.sourceFraming
                                : protection::SourceFraming::Plain,
        items_per_inv, node_scale(graph.externalInput().node));
    std::vector<QueueWord> source_words =
        queue_pool != nullptr ? queue_pool->acquire(0)
                              : std::vector<QueueWord>();
    if (!options.streamingSource) {
        std::vector<Word> local_padded;
        std::vector<Word> &padded_input =
            scratch != nullptr ? scratch->paddedInput : local_padded;
        padded_input.assign(input.begin(), input.end());
        if (padded_input.size() != needed) {
            if (padded_input.size() < needed) {
                warn("loadGraph: input shorter than schedule needs; "
                     "zero-padding");
            }
            padded_input.resize(needed, 0);
        }

        source_words.reserve(needed + 2 * steady_iterations + 2);
        app.sourceFramer.appendFrames(padded_input.data(),
                                      steady_iterations, source_words);
        app.sourceFramer.finish(source_words);
    }

    auto source = std::make_unique<SourceQueue>(
        "source", std::move(source_words), queue_pool);
    source->setStreaming(options.streamingSource);
    app.source = source.get();
    machine.addQueue(std::move(source));

    std::unique_ptr<CollectorQueue> collector;
    if (app.sourceFramer.framing() == protection::SourceFraming::Headers &&
        options.frameAlignedOutput) {
        const Count out_scale =
            node_scale(graph.externalOutput().node);
        const Count frames =
            (steady_iterations + out_scale - 1) / out_scale;
        collector = std::make_unique<FrameAlignedCollector>(
            "collector",
            app.frames.outputItemsPerFrame * out_scale, frames);
    } else {
        collector = std::make_unique<CollectorQueue>("collector");
    }
    app.collector = collector.get();
    machine.addQueue(std::move(collector));

    // ------------------------------------------------------------------
    // Edge queues.
    // ------------------------------------------------------------------
    // Per-edge frame/block scale: an internal edge is guarded at the
    // coarser (lcm) of its endpoints' domains (§5.4).
    auto edge_scale_of = [&](std::size_t e) -> Count {
        const Edge &edge = graph.edges()[e];
        return std::lcm(node_scale(edge.producer),
                        node_scale(edge.consumer));
    };

    std::vector<QueueBase *> edge_queues;
    edge_queues.reserve(graph.edges().size());
    for (std::size_t e = 0; e < graph.edges().size(); ++e) {
        const Edge &edge = graph.edges()[e];
        std::ostringstream name;
        name << "edge_" << graph.filters()[edge.producer].name << "."
             << edge.outPort << "->"
             << graph.filters()[edge.consumer].name << "."
             << edge.inPort;
        std::size_t capacity = std::max<std::size_t>(
            options.queueCapacityWords,
            2 * app.frames.edgeItemsPerFrame[e] + 64);
        if (desc.consumerBuffersBlocks) {
            // The consumer holds back a whole protection block (plus
            // its checksum words) before serving it; the queue must
            // fit two such blocks or producer and consumer ratchet
            // into permanent timeout recovery.
            const std::size_t block =
                app.frames.edgeItemsPerFrame[e] * edge_scale_of(e);
            capacity =
                std::max<std::size_t>(capacity, 2 * (block + 2) + 64);
        }
        edge_queues.push_back(&machine.addQueue(
            desc.makeEdgeQueue(name.str(), capacity, queue_pool)));
    }

    // ------------------------------------------------------------------
    // Per-node port tables.
    // ------------------------------------------------------------------
    std::vector<std::vector<QueueBase *>> ins(num_nodes);
    std::vector<std::vector<QueueBase *>> outs(num_nodes);
    for (int n = 0; n < num_nodes; ++n) {
        ins[n].assign(graph.filters()[n].popRates.size(), nullptr);
        outs[n].assign(graph.filters()[n].pushRates.size(), nullptr);
    }
    for (std::size_t e = 0; e < graph.edges().size(); ++e) {
        const Edge &edge = graph.edges()[e];
        outs[edge.producer][edge.outPort] = edge_queues[e];
        ins[edge.consumer][edge.inPort] = edge_queues[e];
    }
    ins[graph.externalInput().node][graph.externalInput().port] =
        app.source;
    outs[graph.externalOutput().node][graph.externalOutput().port] =
        app.collector;

    // Per-port metadata for the backend spec: the owning edge's frame
    // scale and its per-(scaled-)frame item count.
    auto port_scale = [&](QueueBase *queue, int self) -> Count {
        for (std::size_t e = 0; e < graph.edges().size(); ++e)
            if (edge_queues[e] == queue)
                return edge_scale_of(e);
        return node_scale(self);
    };
    auto port_frame_items = [&](QueueBase *queue) -> Count {
        if (queue == app.source)
            return app.frames.inputItemsPerFrame;
        if (queue == app.collector)
            return app.frames.outputItemsPerFrame;
        for (std::size_t e = 0; e < graph.edges().size(); ++e)
            if (edge_queues[e] == queue)
                return app.frames.edgeItemsPerFrame[e];
        return 0;
    };

    // ------------------------------------------------------------------
    // Cores, backends, runtimes.
    // ------------------------------------------------------------------
    Count estimated_total = 0;
    for (int n = 0; n < num_nodes; ++n) {
        const FilterSpec &spec = graph.filters()[n];
        Core &core = machine.addCore(spec.name);

        // Filter programs are pure functions of (graph, node): reuse
        // the assembled form across a batch of runs. The copy below is
        // required — queue-cost folding mutates the estimate, and the
        // op costs depend on the run's protection mode.
        isa::Program program;
        if (scratch != nullptr) {
            const auto key = std::make_pair(&graph, n);
            auto it = scratch->programs.find(key);
            if (it == scratch->programs.end()) {
                it = scratch->programs
                         .emplace(key,
                                  spec.buildProgram(static_cast<int>(
                                      reps.firings[n])))
                         .first;
            }
            program = it->second;
        } else {
            program = spec.buildProgram(
                static_cast<int>(reps.firings[n]));
        }

        // Software-queue routines charge opCost() virtual instructions
        // per queue op inside the scope (and they count against the
        // PPU watchdog budget), so fold the exact per-invocation queue
        // cost into the estimate the budget is derived from. The same
        // cost has to reach the *nested* scope budgets: each kernel's
        // declared scope wraps one firing, whose pops/pushes charge
        // the same op cost against the nested deadline — without the
        // fold, error-free fft/jpeg/mp3 runs on software queues
        // collapse into watchdog-timeout thrash.
        if (program.estimatedInstsPerInvocation > 0) {
            Count per_firing_insts = 0;
            for (std::size_t p = 0; p < ins[n].size(); ++p)
                per_firing_insts +=
                    ins[n][p]->opCost() * spec.popRates[p];
            for (std::size_t p = 0; p < outs[n].size(); ++p)
                per_firing_insts +=
                    outs[n][p]->opCost() * spec.pushRates[p];
            program.estimatedInstsPerInvocation +=
                per_firing_insts * reps.firings[n];
            for (isa::ScopeInfo &scope : program.scopes) {
                if (scope.estimatedInsts > 0)
                    scope.estimatedInsts += per_firing_insts;
            }
        }

        estimated_total +=
            program.estimatedInstsPerInvocation * steady_iterations;
        core.setProgram(std::move(program));

        ErrorInjector::Config injector;
        injector.enabled = options.injectErrors;
        injector.mtbe = node_mtbe(n);
        injector.seed = coreSeed(options.seed, n);
        injector.flipAllRegisters = options.flipAllRegisters;
        core.configureInjector(injector);

        protection::BackendSpec backend_spec;
        backend_spec.ins = ins[n];
        backend_spec.outs = outs[n];
        backend_spec.replicas = replicas;
        for (QueueBase *queue : ins[n]) {
            const Count scale = port_scale(queue, n);
            backend_spec.inScales.push_back(scale);
            backend_spec.inGuarded.push_back(
                queue != app.source || options.guardSourceEdge);
            backend_spec.inBlockItems.push_back(
                port_frame_items(queue) * scale);
            backend_spec.inTotalItems.push_back(
                port_frame_items(queue) * steady_iterations);
        }
        for (QueueBase *queue : outs[n]) {
            const Count scale = port_scale(queue, n);
            backend_spec.outScales.push_back(scale);
            backend_spec.outBlockItems.push_back(
                port_frame_items(queue) * scale);
            backend_spec.outTotalItems.push_back(
                port_frame_items(queue) * steady_iterations);
        }

        CommBackend &bound =
            machine.addBackend(desc.makeBackend(backend_spec));
        machine.addRuntime(core, bound, steady_iterations);
    }

    if (desc.costScalesWithReplicas)
        estimated_total *= static_cast<Count>(replicas);

    // Safety net: abort runaway (corrupted) executions well past any
    // plausible completion point.
    machine.config().globalWatchdogInsts = std::max<Count>(
        200'000'000ull, estimated_total * 50);

    return app;
}

} // namespace commguard::streamit
