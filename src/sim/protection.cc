#include "sim/protection.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "machine/abft_backend.hh"
#include "machine/backends.hh"
#include "machine/replicate_backend.hh"
#include "queue/reliable_queue.hh"
#include "queue/software_queue.hh"
#include "queue/working_set_queue.hh"

namespace commguard::protection
{

namespace
{

/** Registered ids fit the uint8 ProtectionMode space. */
constexpr std::size_t kMaxModes = 256;

std::unique_ptr<QueueBase>
makeSoftwareQueue(const std::string &name, std::size_t capacity,
                  RecyclePool<QueueWord> *recycle)
{
    return std::make_unique<SoftwareQueue>(name, capacity, recycle);
}

std::unique_ptr<QueueBase>
makeReliableQueue(const std::string &name, std::size_t capacity,
                  RecyclePool<QueueWord> *recycle)
{
    return std::make_unique<ReliableQueue>(name, capacity, recycle);
}

/** Distinct repair leaves over every registered mode. */
std::vector<std::string_view>
repairLeafUnion()
{
    const ProtectionRegistry &registry = ProtectionRegistry::instance();
    std::vector<std::string_view> leaves;
    for (const ProtectionMode mode : registry.modes()) {
        for (const std::string &leaf :
             registry.describe(mode).repairLeaves) {
            if (std::find(leaves.begin(), leaves.end(), leaf) ==
                leaves.end())
                leaves.push_back(leaf);
        }
    }
    return leaves;
}

} // namespace

SourceFramer::SourceFramer(SourceFraming framing, Count items_per_frame,
                           Count frames_per_block)
    : _framing(framing), _itemsPerFrame(items_per_frame),
      _framesPerBlock(frames_per_block ? frames_per_block : 1)
{}

void
SourceFramer::appendFrames(const Word *values, Count frames,
                           std::vector<QueueWord> &out)
{
    const bool headers = _framing == SourceFraming::Headers;
    const bool checksums = _framing == SourceFraming::Checksums;
    for (Count f = 0; f < frames; ++f) {
        if (headers && _frames % _framesPerBlock == 0) {
            out.push_back(makeHeader(
                static_cast<FrameId>(_frames / _framesPerBlock + 1)));
        }
        // The running sums are cheap enough to keep for every framing;
        // only Checksums emits them.
        for (Count i = 0; i < _itemsPerFrame; ++i) {
            const Word value = *values++;
            out.push_back(makeItem(value));
            _sumS += value;
            _sumW += static_cast<Word>(++_blockItems) * value;
        }
        ++_frames;
        if (checksums && _frames % _framesPerBlock == 0)
            sealBlock(out);
    }
}

void
SourceFramer::finish(std::vector<QueueWord> &out)
{
    if (_framing == SourceFraming::Headers)
        out.push_back(makeHeader(endOfComputationId));
    else if (_framing == SourceFraming::Checksums)
        sealBlock(out);
}

void
SourceFramer::sealBlock(std::vector<QueueWord> &out)
{
    if (_blockItems > 0) {
        out.push_back(makeHeader(static_cast<FrameId>(_sumS)));
        out.push_back(makeHeader(static_cast<FrameId>(_sumW)));
    }
    _sumS = 0;
    _sumW = 0;
    _blockItems = 0;
}

ProtectionRegistry &
ProtectionRegistry::instance()
{
    static ProtectionRegistry registry;
    return registry;
}

ProtectionRegistry::ProtectionRegistry()
{
    {
        ModeDescriptor raw;
        raw.name = "raw";
        raw.description =
            "Unprotected StreamIt software queues (error-prone "
            "communication, PPU-protected cores only)";
        raw.paperRef = "Paper §3, Fig. 3b";
        raw.aliases = {"ppu-only"};
        raw.sourceFraming = SourceFraming::Plain;
        raw.makeEdgeQueue = makeSoftwareQueue;
        raw.makeBackend = [](const BackendSpec &spec) {
            return std::make_unique<RawBackend>(spec.ins, spec.outs);
        };
        add(std::move(raw));
    }
    {
        ModeDescriptor reliable;
        reliable.name = "reliable-queue";
        reliable.description =
            "Reliable hardware queues without alignment protection "
            "(queue state safe, stream alignment exposed)";
        reliable.paperRef = "Paper §3, Fig. 3c";
        reliable.sourceFraming = SourceFraming::Plain;
        reliable.makeEdgeQueue = makeReliableQueue;
        reliable.makeBackend = [](const BackendSpec &spec) {
            return std::make_unique<RawBackend>(spec.ins, spec.outs);
        };
        add(std::move(reliable));
    }
    {
        ModeDescriptor commguard;
        commguard.name = "commguard";
        commguard.description =
            "Full CommGuard: header inserters, alignment managers, and "
            "reliable queue managers per core";
        commguard.paperRef = "Paper §4-5, Fig. 3d";
        commguard.sourceFraming = SourceFraming::Headers;
        commguard.repairLeaves = {"paddedItems", "discardedItems"};
        commguard.makeEdgeQueue =
            [](const std::string &name, std::size_t capacity,
               RecyclePool<QueueWord> *recycle) {
                return std::make_unique<WorkingSetQueue>(name, capacity,
                                                         8, recycle);
            };
        commguard.makeBackend = [](const BackendSpec &spec) {
            return std::make_unique<CommGuardBackend>(
                spec.ins, spec.outs, spec.inScales, spec.outScales,
                spec.inGuarded);
        };
        add(std::move(commguard));
    }
    {
        ModeDescriptor replicate;
        replicate.name = "replicate";
        replicate.description =
            "N-modular filter-firing replication with output voting "
            "over reliable queues (protects computation, not "
            "communication)";
        replicate.paperRef =
            "PAPERS.md: task-replication futures (Fernandes de Oliveira "
            "et al.)";
        replicate.sourceFraming = SourceFraming::Plain;
        replicate.repairLeaves = {"votedCorrections"};
        replicate.makeEdgeQueue = makeReliableQueue;
        replicate.makeBackend = [](const BackendSpec &spec) {
            return std::make_unique<ReplicateBackend>(
                spec.ins, spec.outs, spec.replicas);
        };
        replicate.costScalesWithReplicas = true;
        add(std::move(replicate));
    }
    {
        ModeDescriptor abft;
        abft.name = "abft";
        abft.description =
            "ABFT checksum-augmented streams over corruptible software "
            "queues (detects and corrects value corruption per block)";
        abft.paperRef =
            "Huang & Abraham ABFT; PAPERS.md FT-GEMM checksum methods";
        abft.sourceFraming = SourceFraming::Checksums;
        abft.repairLeaves = {"correctedItems"};
        abft.makeEdgeQueue = makeSoftwareQueue;
        abft.makeBackend = [](const BackendSpec &spec) {
            return std::make_unique<AbftBackend>(
                spec.ins, spec.outs, spec.inGuarded, spec.inBlockItems,
                spec.outBlockItems, spec.inTotalItems,
                spec.outTotalItems);
        };
        abft.consumerBuffersBlocks = true;
        add(std::move(abft));
    }
}

ProtectionMode
ProtectionRegistry::add(ModeDescriptor descriptor)
{
    if (descriptor.name.empty())
        fatal("protection registry: mode name must not be empty");
    if (!descriptor.makeEdgeQueue)
        fatal("protection mode '" + descriptor.name +
              "': missing edge-queue factory");
    if (!descriptor.makeBackend)
        fatal("protection mode '" + descriptor.name +
              "': missing backend factory");
    for (const ModeDescriptor &existing : _descriptors) {
        auto clashes = [&](const std::string &name) {
            if (name == existing.name)
                return true;
            for (const std::string &alias : existing.aliases)
                if (name == alias)
                    return true;
            return false;
        };
        if (clashes(descriptor.name))
            fatal("protection mode '" + descriptor.name +
                  "': name already registered");
        for (const std::string &alias : descriptor.aliases)
            if (clashes(alias))
                fatal("protection mode '" + descriptor.name +
                      "': alias '" + alias + "' already registered");
    }
    if (_descriptors.size() >= kMaxModes)
        fatal("protection registry: mode table full");

    descriptor.mode =
        static_cast<ProtectionMode>(_descriptors.size());
    _descriptors.push_back(std::move(descriptor));
    return _descriptors.back().mode;
}

const ModeDescriptor &
ProtectionRegistry::describe(ProtectionMode mode) const
{
    const std::size_t index = static_cast<std::size_t>(mode);
    if (index >= _descriptors.size())
        fatal("protection registry: unregistered mode id " +
              std::to_string(index));
    return _descriptors[index];
}

bool
ProtectionRegistry::tryParse(const std::string &name,
                             ProtectionMode *out) const
{
    for (const ModeDescriptor &descriptor : _descriptors) {
        if (descriptor.name == name) {
            *out = descriptor.mode;
            return true;
        }
        for (const std::string &alias : descriptor.aliases) {
            if (alias == name) {
                *out = descriptor.mode;
                return true;
            }
        }
    }
    return false;
}

std::vector<ProtectionMode>
ProtectionRegistry::modes() const
{
    std::vector<ProtectionMode> result;
    result.reserve(_descriptors.size());
    for (const ModeDescriptor &descriptor : _descriptors)
        result.push_back(descriptor.mode);
    return result;
}

std::vector<std::string>
ProtectionRegistry::names() const
{
    std::vector<std::string> result;
    result.reserve(_descriptors.size());
    for (const ModeDescriptor &descriptor : _descriptors)
        result.push_back(descriptor.name);
    return result;
}

std::string
ProtectionRegistry::nameList() const
{
    std::string result;
    for (const ModeDescriptor &descriptor : _descriptors) {
        if (!result.empty())
            result += ", ";
        result += descriptor.name;
    }
    return result;
}

const char *
protectionModeName(ProtectionMode mode)
{
    return ProtectionRegistry::instance().describe(mode).name.c_str();
}

ProtectionMode
parseProtectionMode(const std::string &name)
{
    ProtectionMode mode{};
    if (!ProtectionRegistry::instance().tryParse(name, &mode))
        fatal("unknown protection mode '" + name +
              "' (registered modes: " +
              ProtectionRegistry::instance().nameList() + ")");
    return mode;
}

bool
tryParseProtectionMode(const std::string &name, ProtectionMode *out)
{
    return ProtectionRegistry::instance().tryParse(name, out);
}

bool
isRepairCounter(std::string_view name)
{
    const std::vector<std::string_view> leaves = repairLeafUnion();
    return std::find(leaves.begin(), leaves.end(),
                     metrics::leafName(name)) != leaves.end();
}

Count
repairTotal(const metrics::MetricSnapshot &snapshot)
{
    Count sum = 0;
    for (const std::string_view leaf : repairLeafUnion())
        sum += snapshot.total(leaf);
    return sum;
}

} // namespace commguard::protection
