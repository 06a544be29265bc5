/**
 * @file
 * Tests for execution tracing: a core runs with no sink attached by
 * default. What a sink observes is covered by core_writeback_test.cc
 * (the state at every hook) and event_trace_test.cc (the event trace).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "isa/assembler.hh"
#include "machine/backends.hh"
#include "machine/multicore.hh"

namespace commguard
{
namespace
{

using namespace isa;

TEST(Trace, NullSinkIsDefaultAndFree)
{
    Assembler a("tiny");
    a.li(R1, 42);
    a.addi(R2, R1, 1);

    Multicore machine;
    Core &core = machine.addCore("t");
    core.setProgram(a.finalize());
    machine.addRuntime(
        core,
        machine.addBackend(std::make_unique<RawBackend>(
            std::vector<QueueBase *>{}, std::vector<QueueBase *>{})),
        1);

    // No sink attached: simply runs.
    EXPECT_EQ(core.traceSink(), nullptr);
    ASSERT_TRUE(machine.run().completed);
    EXPECT_EQ(core.counters().committedInsts, 3u);  // li, addi, halt.
}

} // namespace
} // namespace commguard
