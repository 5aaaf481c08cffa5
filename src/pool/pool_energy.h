/**
 * @file
 * flowgnn::pool — measured-occupancy energy for a scheduled trace.
 *
 * The Table VI scale-out model (perf/energy.h) charges idle power for
 * every die-millisecond a die is not computing; what that costs in
 * practice depends on the *schedule*, not just the per-run latency: a
 * gang policy that head-of-line blocks leaves dies idling that
 * space-share would have filled. This header closes the loop by
 * converting a schedule's per-die busy-cycle occupancy (from the
 * cycle-domain simulator, or any measured timeline) into the
 * die_busy_ms vector multi_die_energy prices, so policies can be
 * compared in millijoules as well as makespan.
 */
#ifndef FLOWGNN_POOL_POOL_ENERGY_H
#define FLOWGNN_POOL_POOL_ENERGY_H

#include <cstdint>

#include "perf/energy.h"
#include "pool/schedule_sim.h"

namespace flowgnn {

/**
 * Prices a simulated schedule with the multi-die energy model using
 * its exact per-die occupancy: die d is charged active power for
 * die_busy[d] cycles and static power for the rest of the makespan.
 *
 * @param sched      outcome of simulate_pool_schedule
 * @param clock_mhz  engine clock used to convert cycles to wall time
 * @param link_words total inter-die exchange words moved by the
 *                   trace's jobs (0 for unsharded pools)
 * @param replication_factor average node copies across dies, owned
 *                   plus ghost (1.0 for unsharded pools)
 * @param graph_nodes total nodes processed across the trace (scales
 *                   the ghost-storage term)
 * @param node_dim   feature width in words
 */
MultiDieEnergy pool_schedule_energy(const SimResult &sched,
                                    double clock_mhz,
                                    std::uint64_t link_words = 0,
                                    double replication_factor = 1.0,
                                    std::size_t graph_nodes = 0,
                                    std::size_t node_dim = 0);

} // namespace flowgnn

#endif // FLOWGNN_POOL_POOL_ENERGY_H
