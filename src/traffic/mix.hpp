/**
 * @file
 * The built-in synthetic job mix the open-loop stress stack (the
 * tier-2 stress test, bench/bench_extensions and tools/nol-traffic)
 * drives through the server. Three compute-bound job classes with
 * ~10x-apart service demands, compiled as *separate* programs so each
 * carries its own compile-time profile — the decision engine's seeded
 * Tm, and therefore the SPJF admission policy's predicted hold time,
 * genuinely differs per class instead of blending into one average.
 *
 * Class shapes (Zipf order — index 0 is drawn most often):
 *  - "short": interactive-scale kernel, highest priority. The many.
 *  - "medium": an order of magnitude heavier, default priority.
 *  - "long": another order heavier, lowest priority. The heavy tail
 *    that parks on a slot and makes FIFO's p99 collapse.
 *
 * The 17-program SPEC-shaped suite (src/workloads) remains fully
 * usable with the same harness — generateTrace() only needs a program
 * count — but the built-in mix keeps thousand-arrival stress runs
 * inside CI time budgets.
 */
#ifndef NOL_TRAFFIC_MIX_HPP
#define NOL_TRAFFIC_MIX_HPP

#include <memory>
#include <vector>

#include "interp/backendkind.hpp"
#include "traffic/harness.hpp"

namespace nol::traffic {

/** The compiled built-in mix; `programs` points into `owned`. */
struct BuiltinMix {
    std::vector<std::shared_ptr<compiler::CompiledProgram>> owned;
    std::vector<TrafficProgram> programs;
};

/**
 * Compile the three-class mix against @p network (every class shares
 * the link spec; arrival order and churn stay with the trace).
 * @p backend selects the execution engine each session runs on;
 * backends are bit-identical in simulated metrics, so this only moves
 * host wall-clock.
 */
BuiltinMix makeBuiltinMix(const net::NetworkSpec &network,
                          interp::BackendKind backend =
                              interp::BackendKind::Interpreter);

/**
 * The full 17-program SPEC-shaped evaluation suite (src/workloads) as
 * a traffic mix: one TrafficProgram per Table 4 workload, each with
 * its own profile-seeded predictions, per-workload memory scale and a
 * priority derived from its paper runtime (short jobs preempt long
 * ones under the priority policy, mirroring the built-in mix's
 * interactive-first shape). Zipf index order is Table 4 order.
 * Heavier than the built-in mix — meant for suite-realism runs, not
 * thousand-arrival stress.
 */
BuiltinMix makeSuiteMix(const net::NetworkSpec &network,
                        interp::BackendKind backend =
                            interp::BackendKind::Interpreter);

} // namespace nol::traffic

#endif // NOL_TRAFFIC_MIX_HPP
