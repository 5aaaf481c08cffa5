/**
 * @file
 * flowgnn::slo tests — the deterministic pins for deadline scheduling,
 * EASY backfill, layer-boundary preemption, and the elastic
 * autoscaler:
 *  - schedule-simulator pins: exact EDF finish order and lateness,
 *    kEdf == kFifoGang with equal deadlines, backfill makespans and
 *    the recorded head reservations, preemption yield points, the
 *    autoscaler's exact (cycle, target) timeline;
 *  - a 200-trace seeded property sweep: backfill never delays a
 *    reserved gang head, EDF degenerates to FIFO gang;
 *  - DispatchCore cases both schedulers share: distinct victims for
 *    back-to-back urgent admissions, a preempted job's FIFO place,
 *    and no backfill without an estimate;
 *  - engine-level preemption: resume from every layer boundary is
 *    bit-identical to the uninterrupted run (token- and slice-driven);
 *  - the synthetic open-loop arrival generator's determinism + shape;
 *  - measured-occupancy pool energy against hand-computed traces;
 *  - the live pool: deadline metrics, JobSpec admission, elastic
 *    set_active_dies, live preemption bit-identity, and the
 *    metrics-driven Autoscaler shrinking an idle pool.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/engine.h"
#include "graph/generators.h"
#include "pool/arrivals.h"
#include "pool/autoscaler.h"
#include "pool/dispatch.h"
#include "pool/pool_energy.h"
#include "pool/schedule_sim.h"
#include "tensor/rng.h"
#include "testing_util.h"

namespace flowgnn {
namespace {

using testing::make_random_sample;

// ---- Simulator: EDF ----------------------------------------------------

TEST(SloSim, EdfOrdersByAbsoluteDeadlineAndAccountsLateness)
{
    // One die. j0 runs first either way; j2 arrives last with the
    // tightest absolute deadline (2 + 15 = 17). EDF runs it ahead of
    // j1, cutting its lateness from 13 to 3; FIFO order makes it wait.
    std::vector<SimJob> trace = {
        {{10}, 0, 0, 100, 0},
        {{10}, 1, 0, 200, 0},
        {{10}, 2, 0, 15, 0},
    };
    SimOptions edf;
    edf.num_dies = 1;
    edf.policy = PoolPolicy::kEdf;
    SimResult r = simulate_pool_schedule(trace, edf);
    EXPECT_EQ(r.job_finish(0), 10u);
    EXPECT_EQ(r.job_finish(2), 20u) << "tightest deadline jumps j1";
    EXPECT_EQ(r.job_finish(1), 30u);
    EXPECT_EQ(r.deadline_misses, 1u);
    EXPECT_EQ(r.lateness(2), 3u);
    EXPECT_EQ(r.lateness(0), 0u);
    EXPECT_EQ(r.lateness(1), 0u);

    // Deadlines feed lateness accounting under every policy.
    SimResult fifo =
        simulate_pool_schedule(trace, {.num_dies = 1,
                                       .policy = PoolPolicy::kFifoGang});
    EXPECT_EQ(fifo.job_finish(2), 30u);
    EXPECT_EQ(fifo.deadline_misses, 1u);
    EXPECT_EQ(fifo.lateness(2), 13u);
    EXPECT_EQ(fifo.makespan, r.makespan) << "same work either way";
}

TEST(SloSim, EdfWithEqualDeadlinesIsFifoGang)
{
    // The PR-3 gang pin (start(1) = 20, makespan 37) must reproduce
    // exactly under kEdf when every job carries the same relative
    // deadline: equal deadlines order by arrival, ties FIFO.
    std::vector<SimJob> trace = {
        {{20, 20}, 0, 0, 1000, 0},
        {{2, 2, 2}, 0, 0, 1000, 0},
        {{15}, 0, 0, 1000, 0},
        {{15}, 0, 0, 1000, 0},
    };
    SimOptions edf;
    edf.num_dies = 4;
    edf.policy = PoolPolicy::kEdf;
    SimResult r = simulate_pool_schedule(trace, edf);
    EXPECT_EQ(r.job_start(1), 20u);
    EXPECT_EQ(r.makespan, 37u);
    SimResult gang =
        simulate_pool_schedule(trace, {.num_dies = 4,
                                       .policy = PoolPolicy::kFifoGang});
    for (std::size_t j = 0; j < trace.size(); ++j) {
        EXPECT_EQ(r.job_start(j), gang.job_start(j)) << j;
        EXPECT_EQ(r.job_finish(j), gang.job_finish(j)) << j;
    }
}

// ---- Simulator: EASY backfill ------------------------------------------

TEST(SloSim, EasyBackfillFillsHolesWithoutDelayingHead)
{
    // The PR-3 head-of-line trace: plain gang idles two dies for 20
    // cycles (makespan 37). With backfill the singles run in the hole
    // (they provably finish by the head's reservation at t=20) and the
    // head still starts exactly at its reservation.
    std::vector<SimJob> trace = {
        {{20, 20}, 0, 0},
        {{2, 2, 2}, 0, 0},
        {{15}, 0, 0},
        {{15}, 0, 0},
    };
    SimOptions opt;
    opt.num_dies = 4;
    opt.policy = PoolPolicy::kFifoGang;
    opt.easy_backfill = true;
    SimResult r = simulate_pool_schedule(trace, opt);
    EXPECT_EQ(r.reservation(1), 20u);
    EXPECT_EQ(r.job_start(1), 20u) << "head starts at its reservation";
    EXPECT_EQ(r.job_start(2), 0u);
    EXPECT_EQ(r.job_start(3), 0u);
    EXPECT_EQ(r.makespan, 22u) << "vs 37 under plain gang";
    EXPECT_EQ(r.reservation(0), SimResult::kNoReservation);
}

TEST(SloSim, EasyBackfillExtraDieRuleAdmitsLongJob)
{
    // j2 (25 cycles) runs past the head's reservation (t=20), but the
    // head needs only 3 of 4 dies then — j2 fits in the extra die and
    // is admitted by the shadow rule without delaying the head.
    std::vector<SimJob> trace = {
        {{20, 20}, 0, 0},
        {{2, 2, 2}, 0, 0},
        {{25}, 0, 0},
    };
    SimOptions opt;
    opt.num_dies = 4;
    opt.policy = PoolPolicy::kFifoGang;
    opt.easy_backfill = true;
    SimResult r = simulate_pool_schedule(trace, opt);
    EXPECT_EQ(r.job_start(2), 0u) << "extra-die backfill";
    EXPECT_EQ(r.job_start(1), 20u);
    EXPECT_EQ(r.makespan, 25u);
}

TEST(SloSim, EasyBackfillDeniesJobThatWouldDelayHead)
{
    // A 2-wide 25-cycle job can neither finish by the reservation nor
    // fit in the single extra die — admitting it would push the head
    // past t=20, so it must wait behind the head instead.
    std::vector<SimJob> trace = {
        {{20, 20}, 0, 0},
        {{2, 2, 2}, 0, 0},
        {{25, 25}, 0, 0},
    };
    SimOptions opt;
    opt.num_dies = 4;
    opt.policy = PoolPolicy::kFifoGang;
    opt.easy_backfill = true;
    SimResult r = simulate_pool_schedule(trace, opt);
    EXPECT_EQ(r.job_start(1), 20u) << "head start is untouched";
    EXPECT_EQ(r.job_start(2), 22u);
    EXPECT_EQ(r.makespan, 47u);
    EXPECT_LE(r.job_start(2), r.reservation(2))
        << "j2's own reservation (taken once it became head)";
}

// ---- Property sweep: 200 seeded random traces --------------------------

namespace {

std::vector<SimJob>
random_trace(std::uint64_t seed, std::uint32_t &num_dies)
{
    Rng rng(seed);
    num_dies = 2 + static_cast<std::uint32_t>(rng.uniform_index(3));
    const std::size_t n = 3 + rng.uniform_index(6);
    std::vector<SimJob> trace;
    std::uint64_t arrival = 0;
    for (std::size_t j = 0; j < n; ++j) {
        SimJob job;
        const std::size_t width = 1 + rng.uniform_index(num_dies);
        for (std::size_t t = 0; t < width; ++t)
            job.task_cycles.push_back(1 + rng.uniform_index(50));
        arrival += rng.uniform_index(30);
        job.arrival = arrival;
        trace.push_back(std::move(job));
    }
    return trace;
}

} // namespace

TEST(SloSim, PropertyBackfillNeverDelaysReservedHead)
{
    // Over 200 seeded random traces: (a) every job that took a
    // reservation while it was the blocked gang head starts at or
    // before it; (b) the first job to block (whose plain-gang start
    // equals that first reservation exactly) is never started later by
    // turning backfill on; (c) backfill never lengthens any job's
    // start vs plain gang on these traces.
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        std::uint32_t dies = 0;
        const std::vector<SimJob> trace = random_trace(seed, dies);

        SimOptions plain;
        plain.num_dies = dies;
        plain.policy = PoolPolicy::kFifoGang;
        SimResult off = simulate_pool_schedule(trace, plain);

        SimOptions bf = plain;
        bf.easy_backfill = true;
        SimResult on = simulate_pool_schedule(trace, bf);

        bool first_reserved = false;
        for (std::size_t j = 0; j < trace.size(); ++j) {
            if (on.reservation(j) == SimResult::kNoReservation)
                continue;
            EXPECT_LE(on.job_start(j), on.reservation(j))
                << "seed " << seed << " job " << j;
            if (!first_reserved) {
                first_reserved = true;
                EXPECT_EQ(off.job_start(j), on.reservation(j))
                    << "seed " << seed
                    << ": plain-gang start IS the first reservation";
            }
            EXPECT_LE(on.job_start(j), off.job_start(j))
                << "seed " << seed << " job " << j;
        }
    }
}

TEST(SloSim, PropertyEdfDegeneratesToFifoGang)
{
    // With no deadlines (all sort as "latest"), kEdf must reproduce
    // kFifoGang schedules exactly — start and finish of every job.
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        std::uint32_t dies = 0;
        const std::vector<SimJob> trace = random_trace(seed, dies);
        SimResult gang =
            simulate_pool_schedule(trace, {.num_dies = dies,
                                           .policy = PoolPolicy::kFifoGang});
        SimOptions edf;
        edf.num_dies = dies;
        edf.policy = PoolPolicy::kEdf;
        SimResult r = simulate_pool_schedule(trace, edf);
        ASSERT_EQ(r.makespan, gang.makespan) << "seed " << seed;
        for (std::size_t j = 0; j < trace.size(); ++j) {
            EXPECT_EQ(r.job_start(j), gang.job_start(j))
                << "seed " << seed << " job " << j;
            EXPECT_EQ(r.job_finish(j), gang.job_finish(j))
                << "seed " << seed << " job " << j;
        }
    }
}

// ---- Simulator: layer-boundary preemption ------------------------------

TEST(SloSim, PreemptionYieldsAtBoundaryAndRequeues)
{
    // One die, EDF. j0 (100 cycles, boundaries every 10) is running
    // when j1 arrives at t=25 with a much tighter deadline. j0 yields
    // at its next boundary (t=30), j1 runs 30-40 and makes its
    // deadline, j0 resumes with remainder + 5 cycles of checkpoint
    // overhead: 40 + (70 + 5) = 115.
    std::vector<SimJob> trace = {
        {{100}, 0, 0, 1000, 10},
        {{10}, 25, 0, 50, 0},
    };
    SimOptions opt;
    opt.num_dies = 1;
    opt.policy = PoolPolicy::kEdf;
    opt.enable_preemption = true;
    opt.preempt_overhead_cycles = 5;
    SimResult r = simulate_pool_schedule(trace, opt);
    EXPECT_EQ(r.preemptions, 1u);
    EXPECT_EQ(r.job_finish(1), 40u) << "meets its t=75 deadline";
    EXPECT_EQ(r.job_finish(0), 115u);
    EXPECT_EQ(r.deadline_misses, 0u);
    EXPECT_EQ(r.makespan, 115u);

    SimOptions no = opt;
    no.enable_preemption = false;
    SimResult base = simulate_pool_schedule(trace, no);
    EXPECT_EQ(base.preemptions, 0u);
    EXPECT_EQ(base.job_finish(1), 110u);
    EXPECT_EQ(base.deadline_misses, 1u);
    EXPECT_EQ(base.lateness(1), 35u);
}

// ---- DispatchCore: victims, requeue order, backfill estimates ----------

namespace {

/** Admits `desc` at its arrival and starts it on `die`. */
void
admit_and_start(DispatchCore &core, const DispatchCore::JobDesc &desc,
                 std::size_t die, std::uint64_t finish)
{
    core.admit(desc);
    DispatchCore::Pick pick;
    ASSERT_TRUE(core.pick(desc.arrival, pick));
    ASSERT_EQ(pick.key, desc.key);
    core.start(die, pick, finish);
}

} // namespace

TEST(DispatchCore, TwoUrgentAdmissionsEvictTwoDistinctVictims)
{
    // Three dies run loose-deadline jobs; two urgent jobs are admitted
    // back to back. The second must not count the first one's victim
    // again (its yield is still pending), or both would share one
    // eviction and the second would wait for a die to free.
    DispatchCore::Config cfg;
    cfg.num_dies = 3;
    cfg.policy = PoolPolicy::kEdf;
    cfg.enable_preemption = true;
    DispatchCore core(cfg);
    for (std::size_t k = 0; k < 3; ++k) {
        DispatchCore::JobDesc loose;
        loose.key = k;
        loose.deadline = 1000 + k;
        admit_and_start(core, loose, k, DispatchCore::kNever);
    }
    std::vector<std::size_t> victims;
    for (std::uint64_t key : {3, 4}) {
        DispatchCore::JobDesc urgent;
        urgent.key = key;
        urgent.arrival = 1;
        urgent.deadline = 10;
        core.admit(urgent);
        core.preempt_for(key, [&](std::size_t die) {
            victims.push_back(die);
            return true;
        });
    }
    ASSERT_EQ(victims.size(), 2u);
    EXPECT_EQ(victims[0], 2u) << "latest deadline yields first";
    EXPECT_EQ(victims[1], 1u) << "then the next-latest, not die 2 again";
    EXPECT_TRUE(core.die(1).preempt_pending);
    EXPECT_TRUE(core.die(2).preempt_pending);
    EXPECT_FALSE(core.die(0).preempt_pending);
}

TEST(DispatchCore, PreemptedJobKeepsItsFifoPlace)
{
    // kPriority, one die: A runs, B (same priority) queues behind it,
    // urgent C evicts A. After C, the requeued A runs before B — ties
    // break by admission order, and a yield is not a re-admission.
    DispatchCore::Config cfg;
    cfg.num_dies = 1;
    cfg.policy = PoolPolicy::kPriority;
    cfg.enable_preemption = true;
    DispatchCore core(cfg);
    DispatchCore::JobDesc a;
    a.key = 0;
    admit_and_start(core, a, 0, DispatchCore::kNever);
    DispatchCore::JobDesc b;
    b.key = 1;
    b.arrival = 1;
    core.admit(b);
    DispatchCore::JobDesc c;
    c.key = 2;
    c.arrival = 2;
    c.priority = 5;
    core.admit(c);
    core.preempt_for(2, [](std::size_t) { return true; });
    ASSERT_TRUE(core.die(0).preempt_pending);
    EXPECT_FALSE(core.release(0, /*yielded=*/true));
    EXPECT_EQ(core.pending_jobs(), 3u);

    DispatchCore::Pick pick;
    ASSERT_TRUE(core.pick(3, pick));
    EXPECT_EQ(pick.key, 2u) << "the urgent job takes the die";
    core.start(0, pick, DispatchCore::kNever);
    EXPECT_TRUE(core.release(0, /*yielded=*/false));

    ASSERT_TRUE(core.pick(4, pick));
    EXPECT_EQ(pick.key, 0u) << "requeued A keeps its place ahead of B";
    EXPECT_EQ(pick.task, 0u);
    EXPECT_FALSE(pick.first) << "a resume is not a start";
}

TEST(DispatchCore, BackfillNeedsAnEstimate)
{
    // D=4 gang with EASY backfill: a 2-wide job holds two dies until
    // t=20 and a 3-wide head blocks. A 25-tick single would fit the
    // head's extra die, but a job with an unknown estimate never
    // backfills; with its estimate known, the extra-dies rule admits it.
    for (bool known : {false, true}) {
        DispatchCore::Config cfg;
        cfg.num_dies = 4;
        cfg.policy = PoolPolicy::kFifoGang;
        cfg.easy_backfill = true;
        DispatchCore core(cfg);
        DispatchCore::JobDesc wide;
        wide.key = 0;
        wide.width = 2;
        wide.task_ticks = 20;
        admit_and_start(core, wide, 0, 20);
        DispatchCore::Pick pick;
        ASSERT_TRUE(core.pick(0, pick));
        core.start(1, pick, 20);
        DispatchCore::JobDesc head;
        head.key = 1;
        head.width = 3;
        head.task_ticks = 2;
        core.admit(head);
        DispatchCore::JobDesc single;
        single.key = 2;
        single.task_ticks = known ? 25 : DispatchCore::kNever;
        core.admit(single);

        const bool picked = core.pick(0, pick);
        EXPECT_EQ(picked, known);
        if (picked) {
            EXPECT_EQ(pick.key, 2u);
            core.start(2, pick, 25);
        }
        // Either way the head's reservation is when the 2-wide job ends.
        core.release(0, false);
        core.release(1, false);
        ASSERT_TRUE(core.pick(20, pick));
        EXPECT_EQ(pick.key, 1u);
        EXPECT_EQ(pick.reservation, known ? 20u : DispatchCore::kNever);
    }
}

// ---- Simulator: elastic autoscaling ------------------------------------

TEST(SloSim, AutoscalerTimelinePinnedOnBurst)
{
    // Nine 300-cycle singles land at t=0 on an 8-die pool capped at 2.
    // Queue pressure doubles capacity at the first two windows; the
    // drained tail scales back down one step as the last job finishes.
    std::vector<SimJob> trace(9, SimJob{{300}, 0, 0});
    AutoscalerConfig cfg;
    cfg.min_dies = 1;
    cfg.max_dies = 8;
    cfg.step_up = 2;
    cfg.step_down = 1;
    cfg.cooldown_windows = 0;
    cfg.scale_up_queue_per_die = 1.0;
    cfg.scale_down_util = 0.5;
    AutoscalerPolicy policy(cfg, /*initial=*/2);

    SimOptions opt;
    opt.num_dies = 8;
    opt.policy = PoolPolicy::kSpaceShare;
    opt.autoscaler = &policy;
    opt.window_cycles = 100;
    SimResult r = simulate_pool_schedule(trace, opt);

    const std::vector<std::pair<std::uint64_t, std::size_t>> want = {
        {0, 2}, {100, 4}, {200, 6}, {700, 5}};
    ASSERT_EQ(r.active_timeline.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(r.active_timeline[i].first, want[i].first) << i;
        EXPECT_EQ(r.active_timeline[i].second, want[i].second) << i;
    }
    EXPECT_EQ(r.makespan, 700u);
    EXPECT_EQ(policy.windows_seen(), 7u);
    EXPECT_EQ(policy.target(), 5u);
}

TEST(AutoscalerPolicyTest, StepSequenceWithCooldownPinned)
{
    AutoscalerConfig cfg;
    cfg.min_dies = 1;
    cfg.max_dies = 8;
    cfg.step_up = 2;
    cfg.step_down = 1;
    cfg.cooldown_windows = 2;
    cfg.scale_up_queue_per_die = 1.0;
    cfg.scale_down_util = 0.5;
    AutoscalerPolicy policy(cfg, 2);

    AutoscalerWindow pressure;
    pressure.busy_dies = 2.0;
    pressure.queue_depth = 5.0;
    AutoscalerWindow idle; // zeros

    // Pressure scales up then holds through the cooldown; sustained
    // pressure steps again the first eligible window; idleness decays
    // one step per eligible window.
    const std::size_t seq[] = {
        policy.step(pressure), // 4 (up, cooldown=2)
        policy.step(pressure), // 4 (cooling)
        policy.step(pressure), // 4 (cooling)
        policy.step(pressure), // 6 (up again)
        policy.step(idle),     // 6 (cooling)
        policy.step(idle),     // 6 (cooling)
        policy.step(idle),     // 5 (down)
    };
    const std::size_t want[] = {4, 4, 4, 6, 6, 6, 5};
    for (std::size_t i = 0; i < 7; ++i)
        EXPECT_EQ(seq[i], want[i]) << "window " << i;
    EXPECT_EQ(policy.windows_seen(), 7u);

    // The p99 trigger fires even with an empty queue.
    AutoscalerConfig lat = cfg;
    lat.scale_up_p99_ms = 10.0;
    lat.cooldown_windows = 0;
    AutoscalerPolicy p99(lat, 2);
    AutoscalerWindow slow;
    slow.queue_delay_p99_ms = 25.0;
    EXPECT_EQ(p99.step(slow), 4u);

    // Bounds: initial target clamps into [min, max].
    EXPECT_EQ(AutoscalerPolicy(cfg, 99).target(), 8u);
    EXPECT_EQ(AutoscalerPolicy(cfg, 0).target(), 1u);
}

// ---- Open-loop arrival generator ---------------------------------------

TEST(Arrivals, DeterministicDiurnalAndBurstShape)
{
    ArrivalPattern p;
    p.horizon_cycles = 2'000'000;
    p.base_rate_per_mcycle = 100.0;
    p.diurnal_amplitude = 0.5;
    p.diurnal_period_cycles = 500'000;
    p.burst_factor = 10.0;
    p.burst_start_cycles = 1'000'000;
    p.burst_len_cycles = 200'000;
    p.seed = 7;

    // Rate function pins: sin(0) = 0, peak at a quarter period, 10x
    // inside the burst window.
    EXPECT_DOUBLE_EQ(arrival_rate_at(p, 0), 100.0);
    EXPECT_NEAR(arrival_rate_at(p, 125'000), 150.0, 1e-6);
    EXPECT_NEAR(arrival_rate_at(p, 1'125'000), 1500.0, 1e-3);
    ArrivalPattern no_burst = p;
    no_burst.burst_len_cycles = 0;
    EXPECT_DOUBLE_EQ(arrival_rate_at(p, 1'200'000),
                     arrival_rate_at(no_burst, 1'200'000))
        << "burst window is half-open";

    const std::vector<std::uint64_t> a = generate_arrivals(p);
    const std::vector<std::uint64_t> b = generate_arrivals(p);
    EXPECT_EQ(a, b) << "bit-reproducible under a seed";
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_LT(a.back(), p.horizon_cycles);

    // The 10x burst must visibly concentrate arrivals: compare the
    // burst window's count against the same window with the burst off.
    auto count_in = [](const std::vector<std::uint64_t> &v,
                       std::uint64_t lo, std::uint64_t hi) {
        return static_cast<std::size_t>(
            std::count_if(v.begin(), v.end(), [&](std::uint64_t t) {
                return t >= lo && t < hi;
            }));
    };
    ArrivalPattern flat = p;
    flat.burst_len_cycles = 0;
    const std::vector<std::uint64_t> base = generate_arrivals(flat);
    const std::size_t burst_n =
        count_in(a, p.burst_start_cycles,
                 p.burst_start_cycles + p.burst_len_cycles);
    const std::size_t flat_n =
        count_in(base, p.burst_start_cycles,
                 p.burst_start_cycles + p.burst_len_cycles);
    EXPECT_GT(burst_n, 5 * std::max<std::size_t>(flat_n, 1));
}

// ---- Measured-occupancy pool energy ------------------------------------

TEST(PoolEnergy, MatchesHandComputedOccupancyTrace)
{
    // D=2 space-share: die0 busy 100 cycles, die1 busy 50, makespan
    // 100. At 1 MHz (1000 cycles/ms) that is 0.1 ms latency with
    // per-die busy {0.1, 0.05} ms — die1 idles half the makespan.
    std::vector<SimJob> trace = {{{100}, 0, 0}, {{50}, 0, 0}};
    SimResult r =
        simulate_pool_schedule(trace, {.num_dies = 2,
                                       .policy = PoolPolicy::kSpaceShare});
    ASSERT_EQ(r.makespan, 100u);
    ASSERT_EQ(r.die_busy[0], 100u);
    ASSERT_EQ(r.die_busy[1], 50u);

    MultiDieEnergy got = pool_schedule_energy(r, /*clock_mhz=*/1.0);
    MultiDieEnergy want =
        multi_die_energy(2, 0.1, 0, 1.0, 0, 0, {0.1, 0.05});
    EXPECT_DOUBLE_EQ(got.busy_mj, want.busy_mj);
    EXPECT_DOUBLE_EQ(got.idle_mj, want.idle_mj);
    EXPECT_DOUBLE_EQ(got.compute_mj, want.compute_mj);
    EXPECT_DOUBLE_EQ(got.total_mj, want.total_mj);
    EXPECT_GT(got.idle_mj, 0.0) << "die1's 0.05 ms hole is charged";
    EXPECT_DOUBLE_EQ(got.compute_mj, got.busy_mj + got.idle_mj);

    EXPECT_THROW(pool_schedule_energy(r, 0.0), std::invalid_argument);
}

TEST(PoolEnergy, GangIdleHolesCostMoreThanSpaceShare)
{
    // Same work, different schedules: plain gang's head-of-line holes
    // (makespan 37 vs 20) burn measurably more idle energy.
    std::vector<SimJob> trace = {
        {{20, 20}, 0, 0},
        {{2, 2, 2}, 0, 0},
        {{15}, 0, 0},
        {{15}, 0, 0},
    };
    SimResult gang =
        simulate_pool_schedule(trace, {.num_dies = 4,
                                       .policy = PoolPolicy::kFifoGang});
    SimResult share =
        simulate_pool_schedule(trace, {.num_dies = 4,
                                       .policy = PoolPolicy::kSpaceShare});
    MultiDieEnergy eg = pool_schedule_energy(gang, 1.0);
    MultiDieEnergy es = pool_schedule_energy(share, 1.0);
    EXPECT_GT(eg.idle_mj, es.idle_mj);
    EXPECT_GT(eg.total_mj, es.total_mj);
    EXPECT_DOUBLE_EQ(eg.busy_mj, es.busy_mj)
        << "identical work, identical active energy";
}

// ---- Engine: layer-boundary checkpoint/resume --------------------------

TEST(EnginePreemption, SingleStageSlicesBitIdentical)
{
    // Drive the run one stage per segment via max_stages and compare
    // the final result with the uninterrupted run: embeddings,
    // prediction, and cycle-exact RunStats.
    Model model = make_model(ModelKind::kGin, 9, 3);
    Engine engine(model, {});
    GraphSample sample = make_random_sample(
        testing::make_random_graph(1, 60, 0x510), 9, 3, 0x511);
    RunResult ref = engine.run(sample);

    RunWorkspace ws;
    RunResult got;
    LayerCheckpoint ckpt;
    RunOptions opts;
    std::size_t segments = 0;
    while (engine.run_resumable(SampleRef(sample), opts, ws, ckpt, got,
                                /*max_stages=*/1) ==
           SegmentOutcome::kPreempted) {
        ++segments;
        EXPECT_EQ(ckpt.next_stage, segments)
            << "one stage per segment";
        EXPECT_GT(ckpt.checkpoint_words(), 0u);
    }
    EXPECT_GT(segments, 0u) << "a multi-stage model must yield";
    EXPECT_TRUE(got.embeddings == ref.embeddings);
    EXPECT_EQ(got.prediction, ref.prediction);
    EXPECT_EQ(got.stats.total_cycles, ref.stats.total_cycles);
    EXPECT_EQ(ckpt.next_stage, 0u) << "completion resets the checkpoint";
}

TEST(EnginePreemption, ResumeFromEveryBoundaryBitIdentical)
{
    Model model = make_model(ModelKind::kGin, 9, 3);
    Engine engine(model, {});
    GraphSample sample = make_random_sample(
        testing::make_random_graph(2, 80, 0x520), 9, 3, 0x521);
    RunResult ref = engine.run(sample);

    for (std::size_t k = 1;; ++k) {
        RunWorkspace ws;
        RunResult got;
        LayerCheckpoint ckpt;
        RunOptions opts;
        SegmentOutcome first = engine.run_resumable(
            SampleRef(sample), opts, ws, ckpt, got, k);
        if (first == SegmentOutcome::kComplete)
            break; // k reached the stage count: no boundary left
        ASSERT_EQ(ckpt.next_stage, k);
        // Resume on a *fresh* engine of the same config: the
        // checkpoint carries everything that is not a pure function
        // of (sample, config).
        Engine other(model, {});
        RunWorkspace ws2;
        ASSERT_EQ(other.run_resumable(SampleRef(sample), opts, ws2,
                                      ckpt, got),
                  SegmentOutcome::kComplete);
        EXPECT_TRUE(got.embeddings == ref.embeddings) << "k=" << k;
        EXPECT_EQ(got.prediction, ref.prediction) << "k=" << k;
        EXPECT_EQ(got.stats.total_cycles, ref.stats.total_cycles)
            << "k=" << k;
    }
}

TEST(EnginePreemption, TokenYieldsAtNextBoundaryWithProgress)
{
    Model model = make_model(ModelKind::kGin, 9, 3);
    Engine engine(model, {});
    GraphSample sample = make_random_sample(
        testing::make_random_graph(0, 50, 0x530), 9, 3, 0x531);
    RunResult ref = engine.run(sample);

    PreemptToken token;
    token.request(); // pre-armed: still guarantees one stage
    RunOptions opts;
    opts.preempt = &token;
    RunWorkspace ws;
    RunResult got;
    LayerCheckpoint ckpt;
    ASSERT_EQ(engine.run_resumable(SampleRef(sample), opts, ws, ckpt,
                                   got),
              SegmentOutcome::kPreempted);
    EXPECT_EQ(ckpt.next_stage, 1u) << "progress guarantee: one stage";
    token.reset();
    EXPECT_FALSE(token.requested());
    ASSERT_EQ(engine.run_resumable(SampleRef(sample), opts, ws, ckpt,
                                   got),
              SegmentOutcome::kComplete);
    EXPECT_TRUE(got.embeddings == ref.embeddings);
    EXPECT_EQ(got.stats.total_cycles, ref.stats.total_cycles);
}

// ---- Live pool: deadlines, elasticity, preemption ----------------------

TEST(PoolSchedulerSlo, DeadlineMetricsAndJobSpecAdmission)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample sample = make_random_sample(
        make_ring_lattice(256, 2), 16, 0, 0x540);
    PoolConfig pool;
    pool.num_dies = 1;
    pool.policy = PoolPolicy::kEdf;
    pool.start_paused = true;
    PoolScheduler scheduler(model, {}, pool);

    JobSpec spec;
    spec.deadline_ms = 1e-6; // unmeetable: queueing alone exceeds it
    auto f1 = scheduler.submit(sample, RunOptions{}, spec);
    auto f2 = scheduler.submit(sample, RunOptions{}, spec);
    scheduler.start();
    scheduler.drain();
    EXPECT_NO_THROW(f1.get());
    EXPECT_NO_THROW(f2.get());

    PoolStats st = scheduler.stats();
    EXPECT_EQ(st.deadline_misses, 2u);
    EXPECT_GT(st.lateness_p50_ms, 0.0);
    EXPECT_GE(st.lateness_p99_ms, st.lateness_p50_ms);
    EXPECT_EQ(st.active_dies, 1u);
    EXPECT_EQ(st.preemptions, 0u);
    obs::MetricsSnapshot snap = scheduler.metrics()->snapshot();
    EXPECT_EQ(snap.counters.at("pool.deadline_misses_total"), 2u);
    EXPECT_EQ(snap.histograms.at("pool.lateness_ms").count, 2u);
}

TEST(PoolSchedulerSlo, SetActiveDiesCapsConcurrencyButNeverDeadlocks)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample small = make_random_sample(
        make_ring_lattice(2000, 2), 16, 0, 0x550);
    PoolConfig pool;
    pool.num_dies = 4;
    pool.policy = PoolPolicy::kSpaceShare;
    pool.start_paused = true;
    PoolScheduler scheduler(model, {}, pool);
    scheduler.set_active_dies(1);
    EXPECT_EQ(scheduler.active_dies(), 1u);

    std::vector<std::future<RunResult>> fs;
    for (int i = 0; i < 3; ++i)
        fs.push_back(scheduler.submit(small));
    scheduler.start();
    scheduler.drain();
    for (auto &f : fs)
        EXPECT_NO_THROW(f.get());
    PoolStats st = scheduler.stats();
    EXPECT_EQ(st.peak_busy_dies, 1u)
        << "cap 1 must serialize a 4-die pool";
    EXPECT_EQ(st.active_dies, 1u);

    // A job wider than the cap still runs: the effective cap rises to
    // the widest pending job instead of deadlocking the gang.
    ShardConfig shard;
    shard.num_shards = 2;
    EngineConfig cfg;
    cfg.p_node = 1;
    PoolConfig pool2;
    pool2.num_dies = 4;
    pool2.start_paused = true;
    PoolScheduler wide(model, cfg, pool2);
    wide.set_active_dies(1);
    GraphSample big = make_random_sample(
        make_ring_lattice(4000, 2), 16, 0, 0x551);
    auto fw = wide.submit_sharded(big, shard);
    wide.start();
    EXPECT_NO_THROW(fw.get());
    EXPECT_EQ(wide.stats().sharded.completed, 1u);
}

TEST(PoolSchedulerSlo, LivePreemptionKeepsResultsBitIdentical)
{
    // One die, priority policy with preemption. A long low-priority
    // GCN-16 run is underway when a high-priority job is admitted; the
    // scheduler requests a layer-boundary checkpoint, runs the urgent
    // job, resumes the victim — and both results must equal isolated
    // runs bit for bit.
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    EngineConfig cfg;
    GraphSample long_job = make_random_sample(
        make_ring_lattice(40000, 2), 16, 0, 0x560);
    GraphSample urgent = make_random_sample(
        make_ring_lattice(500, 2), 16, 0, 0x561);

    PoolConfig pool;
    pool.num_dies = 1;
    pool.policy = PoolPolicy::kPriority;
    pool.enable_preemption = true;
    pool.preempt_priority_gap = 1;
    pool.start_paused = true;
    PoolScheduler scheduler(model, cfg, pool);

    JobSpec low;
    low.priority = 0;
    auto fl = scheduler.submit(long_job, RunOptions{}, low);
    scheduler.start();
    // Wait until the long job is actually on the die, then admit the
    // urgent one mid-run.
    while (scheduler.stats().peak_busy_dies == 0)
        std::this_thread::yield();
    JobSpec high;
    high.priority = 5;
    auto fu = scheduler.submit(urgent, RunOptions{}, high);
    RunResult rl = fl.get();
    RunResult ru = fu.get();
    scheduler.drain();

    Engine reference(model, cfg);
    RunResult il = reference.run(long_job);
    RunResult iu = reference.run(urgent);
    EXPECT_TRUE(rl.embeddings == il.embeddings);
    EXPECT_EQ(rl.prediction, il.prediction);
    EXPECT_EQ(rl.stats.total_cycles, il.stats.total_cycles)
        << "resume must not perturb modeled timing";
    EXPECT_TRUE(ru.embeddings == iu.embeddings);
    EXPECT_EQ(ru.prediction, iu.prediction);
    EXPECT_GE(scheduler.stats().preemptions, 1u)
        << "the 16 layer boundaries leave ample room to yield";
}

TEST(PoolSchedulerSlo, AutoscalerShrinksIdlePoolToMin)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    PoolConfig pool;
    pool.num_dies = 4;
    PoolScheduler scheduler(model, {}, pool);
    EXPECT_EQ(scheduler.active_dies(), 4u);

    AutoscalerConfig cfg;
    cfg.min_dies = 1;
    cfg.max_dies = 4;
    cfg.cooldown_windows = 0;
    cfg.scale_down_util = 0.5;
    cfg.interval_ms = 2.0;
    {
        Autoscaler scaler(scheduler, cfg);
        const auto deadline = std::chrono::steady_clock::now() +
            std::chrono::seconds(10);
        while (scheduler.active_dies() > 1 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_EQ(scheduler.active_dies(), 1u)
            << "an idle pool decays to min_dies";
        EXPECT_EQ(scaler.target(), 1u);
        EXPECT_GE(scaler.windows_seen(), 3u);
    } // destructor joins the control loop

    // Work still completes under the shrunk cap.
    GraphSample sample = make_random_sample(
        make_ring_lattice(256, 2), 16, 0, 0x580);
    EXPECT_NO_THROW(scheduler.submit(sample).get());
    EXPECT_EQ(scheduler.stats().active_dies, 1u);
}

} // namespace
} // namespace flowgnn
