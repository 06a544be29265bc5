/**
 * @file
 * Isolated-call probes: host ns per call of the simulator's hot public
 * operations (the calls the micro_commguard and micro_machine suites
 * exercise), measured with a steady clock and reported as the median of
 * several timed batches.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <map>
#include <string>

namespace perfbench
{

/**
 * Run every probe and return metric name -> ns: ecc.encode_ns,
 * ecc.decode_ns, cg.make_header_ns, am.aligned_pop_ns,
 * am.header_crossing_ns, hi.insert_ns, queue.push_pop_ns.{reliable,
 * software,workingset}, interp.{alu,idct,inject}_ns_per_inst.
 */
std::map<std::string, double> runProbes();

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
