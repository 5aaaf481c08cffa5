/**
 * @file
 * Cycle-domain pool-schedule simulator: the PoolScheduler's
 * DispatchCore (pool/dispatch.h) driven on a virtual cycle clock over
 * modeled task durations, with no threads and no wall clock. Given
 * each job's per-task cycle counts (from isolated engine runs) it
 * answers "what makespan and die utilization would this trace see
 * under policy X" deterministically — the modeled counterpart of the
 * live pool's wall-clock numbers, and the thing CI can assert on
 * without timing flakiness. It adds only event advance, owed cycles,
 * boundary-quantized yields, per-die busy time and autoscaler windows.
 *
 * Beyond the base policies the simulator replays the whole SLO stack
 * (SimOptions):
 *  - kEdf ordering with per-job deadlines, lateness, and miss counts;
 *  - EASY backfill for kFifoGang, with the head job's start-time
 *    reservation recorded per job so tests can assert the non-delay
 *    invariant exactly;
 *  - layer-boundary preemption (kPriority/kEdf): an arriving
 *    more-urgent job evicts the least-urgent running task at its next
 *    boundary multiple; the remainder (plus a checkpoint overhead)
 *    requeues — mirroring Engine::run_resumable;
 *  - elastic capacity: an AutoscalerPolicy stepped on exact windowed
 *    busy-die means and queue depths, its active-die cap applied to
 *    dispatch and its decision sequence recorded for pinning.
 *
 * The simulator's estimates are exact, where the live pool backfills
 * only on JobSpec::estimated_task_cycles; easy_backfill defaults OFF
 * here to keep plain-gang pins stable, and tests opt in.
 */
#ifndef FLOWGNN_POOL_SCHEDULE_SIM_H
#define FLOWGNN_POOL_SCHEDULE_SIM_H

#include <cstdint>
#include <vector>

#include "pool/autoscaler.h"
#include "pool/dispatch.h"

namespace flowgnn {

/** One job of a simulated trace. All times in this header are modeled
 * kernel cycles (take them from RunStats of isolated runs), not wall
 * time — which is what makes the simulator's output flake-free. */
struct SimJob {
    /** Modeled duration of each shard task (kernel cycles). Size =
     * job width; must be <= the simulated die count. */
    std::vector<std::uint64_t> task_cycles;
    /** Submission time (cycles since trace start). */
    std::uint64_t arrival = 0;
    /** kPriority only. */
    int priority = 0;
    /** Relative deadline in cycles (absolute = arrival + deadline);
     * 0 = none. Orders kEdf and feeds lateness/miss accounting. */
    std::uint64_t deadline = 0;
    /** Message-passing layer-boundary spacing in cycles: a preempted
     * task yields at the next boundary multiple since its start.
     * 0 = not preemptible (runs to completion). */
    std::uint64_t boundary_cycles = 0;
};

/** Everything simulate_pool_schedule can vary beyond the trace. */
struct SimOptions {
    std::uint32_t num_dies = 4;
    PoolPolicy policy = PoolPolicy::kSpaceShare;
    /** kPriority aging step (cycles waited per step); 0 disables. */
    std::uint64_t aging_cycles = 0;
    /** kFifoGang EASY backfill (exact-duration variant). OFF by
     * default — see the header comment. */
    bool easy_backfill = false;
    /** kPriority/kEdf: evict the least-urgent running preemptible
     * task when a strictly more-urgent job arrives and no die is
     * free. */
    bool enable_preemption = false;
    int preempt_priority_gap = 1;
    /** Cycles added to a preempted task's remainder (checkpoint store
     * + reload DMA — price it from LayerCheckpoint::checkpoint_words
     * at the engine's word rate). */
    std::uint64_t preempt_overhead_cycles = 0;
    /** Elasticity: when set, the policy is stepped every
     * window_cycles on the window's exact mean busy dies and
     * end-of-window queue depth, and its target caps concurrent
     * tasks. The caller's object is mutated (its final state is the
     * end-of-trace target). */
    AutoscalerPolicy *autoscaler = nullptr;
    std::uint64_t window_cycles = 0;
};

/** Outcome of one simulated schedule. */
struct SimResult {
    /** reservation(j) when job j never took one. */
    static constexpr std::uint64_t kNoReservation = ~0ull;

    std::uint64_t makespan = 0; ///< last task completion (cycles)
    std::vector<std::uint64_t> die_busy; ///< busy cycles per die
    std::uint64_t job_start(std::size_t j) const { return start_[j]; }
    std::uint64_t job_finish(std::size_t j) const { return finish_[j]; }

    /** The start-time guarantee job j held while it was the blocked
     * gang head under EASY backfill (earliest recorded), or
     * kNoReservation. The invariant tests assert
     * job_start(j) <= reservation(j). */
    std::uint64_t
    reservation(std::size_t j) const
    {
        return reservation_[j];
    }

    /** Cycles past the absolute deadline (0 for on-time or
     * deadline-less jobs). */
    std::uint64_t lateness(std::size_t j) const { return lateness_[j]; }

    /** Deadline jobs that finished late. */
    std::size_t deadline_misses = 0;
    /** Layer-boundary evictions performed. */
    std::size_t preemptions = 0;
    /** Active-die cap steps as (cycle, target), starting with the
     * initial cap at cycle 0 — the autoscaler's exact decision
     * sequence, pinnable. Empty without an autoscaler. */
    std::vector<std::pair<std::uint64_t, std::size_t>> active_timeline;

    /** Fraction of die-cycles spent working: sum(busy) / (D * makespan). */
    double utilization() const;

    std::vector<std::uint64_t> start_;  ///< first dispatch per job
    std::vector<std::uint64_t> finish_; ///< last completion per job
    std::vector<std::uint64_t> reservation_;
    std::vector<std::uint64_t> lateness_;
};

/**
 * Simulates the trace under options.policy (see PoolPolicy) on
 * options.num_dies dies, taking every pick and victim choice from the
 * live PoolScheduler's DispatchCore. Throws if any job is wider than
 * the pool.
 */
SimResult simulate_pool_schedule(const std::vector<SimJob> &jobs,
                                 const SimOptions &options);

} // namespace flowgnn

#endif // FLOWGNN_POOL_SCHEDULE_SIM_H
