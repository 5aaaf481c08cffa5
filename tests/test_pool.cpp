/**
 * @file
 * flowgnn::pool tests: schedule-simulator policy semantics (exact
 * makespans for gang head-of-line blocking, space-share backfill,
 * priority aging), pool scheduling correctness (fast-path and sharded
 * jobs bit-identical to isolated runs under every policy), the
 * concurrency acceptance bar (two P=2 jobs fill a D=4 pool), admission
 * control, and the mixed small/sharded stress run through one pool.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <regex>
#include <sstream>
#include <thread>

#include "graph/generators.h"
#include "obs/trace_session.h"
#include "pool/schedule_sim.h"
#include "shard/sharded_engine.h"
#include "tensor/ops.h"
#include "testing_util.h"

namespace flowgnn {
namespace {

using testing::make_random_sample;

/** One job's lease spans on the pool trace, in trace microseconds. */
struct JobLeases {
    double first_start = std::numeric_limits<double>::infinity();
    double last_start = -std::numeric_limits<double>::infinity();
    double first_end = std::numeric_limits<double>::infinity();
    double last_end = -std::numeric_limits<double>::infinity();
};

/** The live pool's recorded schedule: every "lease: job N ..." span
 * of the session, folded per job id. */
std::map<unsigned, JobLeases>
lease_schedule(const obs::TraceSession &session)
{
    std::ostringstream os;
    session.write_chrome_trace(os);
    const std::string json = os.str();
    static const std::regex lease(
        R"re("name": "lease: job (\d+)[^"]*", "cat": "[^"]*", "ph": "X", )re"
        R"re("pid": \d+, "tid": \d+, "ts": ([0-9.]+), "dur": ([0-9.]+))re");
    std::map<unsigned, JobLeases> jobs;
    for (auto it = std::sregex_iterator(json.begin(), json.end(), lease);
         it != std::sregex_iterator(); ++it) {
        JobLeases &job = jobs[static_cast<unsigned>(std::stoul((*it)[1]))];
        const double start = std::stod((*it)[2]);
        const double end = start + std::stod((*it)[3]);
        job.first_start = std::min(job.first_start, start);
        job.last_start = std::max(job.last_start, start);
        job.first_end = std::min(job.first_end, end);
        job.last_end = std::max(job.last_end, end);
    }
    return jobs;
}

// ---- Schedule simulator: policy semantics pinned exactly ---------------

TEST(ScheduleSim, GangHeadOfLineBlocksWhereSpaceShareBackfills)
{
    // D=4. j0 needs 2 dies for 20; j1 needs 3 dies (2 each); j2 and j3
    // are 15-cycle singles. Under gang scheduling j1 cannot start
    // until j0 finishes (needs 3 simultaneous dies, only 2 are free),
    // and FIFO order stalls the singles behind it: two dies idle for
    // j0's whole runtime.
    std::vector<SimJob> trace = {
        {{20, 20}, 0, 0},
        {{2, 2, 2}, 0, 0},
        {{15}, 0, 0},
        {{15}, 0, 0},
    };

    SimResult gang =
        simulate_pool_schedule(trace, {.num_dies = 4,
                                       .policy = PoolPolicy::kFifoGang});
    // t20: j1 gang-starts + j2 backfills; t22: j3.
    EXPECT_EQ(gang.job_start(1), 20u);
    EXPECT_EQ(gang.makespan, 37u);

    SimResult share =
        simulate_pool_schedule(trace, {.num_dies = 4,
                                       .policy = PoolPolicy::kSpaceShare});
    // Idle dies take j1's tasks immediately, then the singles.
    EXPECT_EQ(share.job_start(1), 0u);
    EXPECT_EQ(share.makespan, 20u);

    EXPECT_GT(share.utilization(), gang.utilization());
}

TEST(ScheduleSim, SpaceShareIsWorkConserving)
{
    // A die never idles while any task is pending: total busy cycles
    // equal the trace's work, and the makespan on one die is the sum.
    std::vector<SimJob> trace = {{{5}, 0, 0}, {{7}, 0, 0}, {{3}, 0, 0}};
    SimResult r =
        simulate_pool_schedule(trace, {.num_dies = 1,
                                       .policy = PoolPolicy::kSpaceShare});
    EXPECT_EQ(r.makespan, 15u);
    EXPECT_DOUBLE_EQ(r.utilization(), 1.0);
}

TEST(ScheduleSim, PriorityAgingPreventsStarvation)
{
    // One die. A low-priority job (j0) competes with high-priority
    // work: b runs first either way; c arrives later with high
    // priority. Without aging c overtakes j0; with aging j0's wait
    // raises its effective priority enough to win the tie, FIFO-break.
    std::vector<SimJob> trace = {
        {{10}, 0, 0},  // j0: low priority, arrives first
        {{100}, 0, 5}, // b: high priority, picked immediately
        {{10}, 90, 5}, // c: high priority, arrives while b runs
    };

    SimResult no_aging =
        simulate_pool_schedule(trace, {.num_dies = 1,
                                       .policy = PoolPolicy::kPriority,
                                       .aging_cycles = 0});
    EXPECT_EQ(no_aging.job_finish(2), 110u) << "c overtakes j0";
    EXPECT_EQ(no_aging.job_finish(0), 120u);

    SimResult aged =
        simulate_pool_schedule(trace, {.num_dies = 1,
                                       .policy = PoolPolicy::kPriority,
                                       .aging_cycles = 20});
    EXPECT_EQ(aged.job_finish(0), 110u)
        << "100 cycles of waiting = +5 effective priority";
    EXPECT_EQ(aged.job_finish(2), 120u);
}

TEST(ScheduleSim, RejectsJobsWiderThanPool)
{
    std::vector<SimJob> trace = {{{1, 1, 1}, 0, 0}};
    EXPECT_THROW(
        simulate_pool_schedule(trace, {.num_dies = 2,
                                       .policy = PoolPolicy::kSpaceShare}),
        std::invalid_argument);
}

// ---- PoolScheduler: correctness under scheduling -----------------------

TEST(PoolScheduler, FastPathBitIdenticalToSequentialEngine)
{
    Model model = make_model(ModelKind::kGin, 9, 3);
    EngineConfig cfg;
    PoolConfig pool;
    pool.num_dies = 3;
    PoolScheduler scheduler(model, cfg, pool);
    Engine reference(model, cfg);

    std::vector<GraphSample> samples;
    std::vector<std::future<RunResult>> futures;
    for (int i = 0; i < 24; ++i) {
        samples.push_back(make_random_sample(
            testing::make_random_graph(i, 40, 7000 + i), 9, 3,
            9000 + i));
        futures.push_back(scheduler.submit(samples.back()));
    }
    for (int i = 0; i < 24; ++i) {
        RunResult pooled = futures[i].get();
        RunResult direct = reference.run(samples[i]);
        EXPECT_TRUE(pooled.embeddings == direct.embeddings) << i;
        EXPECT_EQ(pooled.prediction, direct.prediction) << i;
        EXPECT_EQ(pooled.stats.total_cycles,
                  direct.stats.total_cycles)
            << i;
    }
    PoolStats st = scheduler.stats();
    EXPECT_EQ(st.fast.completed, 24u);
    EXPECT_EQ(st.sharded.completed, 0u);
}

TEST(PoolScheduler, ShardedJobMatchesShardedEngine)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    EngineConfig cfg;
    cfg.p_node = 1;
    GraphSample sample = make_random_sample(
        make_ring_lattice(5000, 2), 16, 0, 0xD1E);

    ShardConfig shard;
    shard.num_shards = 4;
    PoolConfig pool;
    pool.num_dies = 4;
    PoolScheduler scheduler(model, cfg, pool);

    ShardedRunResult pooled =
        scheduler.submit_sharded(sample, shard).get();
    ShardedRunResult direct =
        ShardedEngine(model, cfg, shard).run(sample);

    EXPECT_TRUE(pooled.embeddings == direct.embeddings);
    EXPECT_EQ(pooled.prediction, direct.prediction);
    EXPECT_EQ(pooled.stats.total_cycles, direct.stats.total_cycles);
    EXPECT_EQ(pooled.shards.size(), direct.shards.size());
    EXPECT_EQ(pooled.cut_edges, direct.cut_edges);
    EXPECT_EQ(scheduler.stats().sharded.completed, 1u);
}

TEST(PoolScheduler, ClampsJobsWiderThanThePool)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample sample = make_random_sample(
        make_ring_lattice(2000, 2), 16, 0, 0x33);
    ShardConfig shard;
    shard.num_shards = 8; // pool only has 2 dies
    PoolConfig pool;
    pool.num_dies = 2;
    PoolScheduler scheduler(model, {}, pool);
    ShardedRunResult r = scheduler.submit_sharded(sample, shard).get();
    EXPECT_EQ(r.shards.size(), 2u)
        << "a job can never be wider than the pool";
}

// ---- The acceptance bar: concurrent sharded jobs -----------------------

TEST(PoolScheduler, TwoP2JobsFillFourDiesAndStayBitIdentical)
{
    // Two P=2 sharded jobs on a D=4 pool under kSpaceShare must run
    // concurrently — pool occupancy reaches all 4 dies — and their
    // merged results must be bit-identical to isolated runs.
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    EngineConfig cfg;
    cfg.p_node = 1;
    GraphSample a = make_random_sample(
        make_ring_lattice(20000, 2), 16, 0, 0xA11CE);
    GraphSample b = make_random_sample(
        make_ring_lattice(20000, 2), 16, 0, 0xB0B);

    ShardConfig shard;
    shard.num_shards = 2;
    PoolConfig pool;
    pool.num_dies = 4;
    pool.policy = PoolPolicy::kSpaceShare;
    pool.start_paused = true; // build the backlog deterministically

    PoolScheduler scheduler(model, cfg, pool);
    auto fa = scheduler.submit_sharded(a, shard);
    auto fb = scheduler.submit_sharded(b, shard);
    // Four idle dies, four pending tasks: starting the pool dispatches
    // every task before any can finish.
    scheduler.start();
    ShardedRunResult ra = fa.get();
    ShardedRunResult rb = fb.get();
    scheduler.drain();

    PoolStats st = scheduler.stats();
    EXPECT_EQ(st.peak_busy_dies, 4u)
        << "both jobs' shards must be on dies simultaneously";
    EXPECT_EQ(st.sharded.completed, 2u);
    EXPECT_FALSE(st.occupancy.empty());

    ShardedEngine isolated(model, cfg, shard);
    ShardedRunResult ia = isolated.run(a);
    ShardedRunResult ib = isolated.run(b);
    EXPECT_TRUE(ra.embeddings == ia.embeddings);
    EXPECT_TRUE(rb.embeddings == ib.embeddings);
    EXPECT_EQ(ra.prediction, ia.prediction);
    EXPECT_EQ(rb.prediction, ib.prediction);
    EXPECT_EQ(ra.stats.total_cycles, ia.stats.total_cycles);
}

TEST(PoolScheduler, MixedTraceSpaceShareBeatsFifoGang)
{
    // The mixed trace where gang scheduling hurts: a 2-wide job leaves
    // 2 dies free, the 3-wide job behind it cannot gang-start, and
    // FIFO stalls the singles behind that. Space sharing backfills
    // all of it. Assert the advantage twice: modeled makespan via the
    // deterministic simulator (using each task's measured cycles) and
    // the live pool's recorded schedule — the order of its die leases,
    // not wall-clock totals, which a loaded host blurs.
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    EngineConfig cfg;
    cfg.p_node = 1;

    GraphSample wide2 = make_random_sample(
        make_ring_lattice(36000, 2), 16, 0, 0x111);
    GraphSample wide3 = make_random_sample(
        make_ring_lattice(3000, 2), 16, 0, 0x222);
    GraphSample single_a = make_random_sample(
        make_ring_lattice(12000, 2), 16, 0, 0x333);
    GraphSample single_b = make_random_sample(
        make_ring_lattice(12000, 2), 16, 0, 0x444);

    ShardConfig p2;
    p2.num_shards = 2;
    ShardConfig p3;
    p3.num_shards = 3;

    // Modeled task durations from isolated runs.
    ShardedEngine e2(model, cfg, p2);
    ShardedEngine e3(model, cfg, p3);
    Engine e1(model, cfg);
    auto task_cycles = [](const ShardedRunResult &r) {
        std::vector<std::uint64_t> cycles;
        for (const ShardInfo &info : r.shards)
            cycles.push_back(info.stats.total_cycles +
                             info.comm_cycles);
        return cycles;
    };
    std::vector<SimJob> trace;
    trace.push_back({task_cycles(e2.run(wide2)), 0, 0});
    trace.push_back({task_cycles(e3.run(wide3)), 0, 0});
    trace.push_back({{e1.run(single_a).stats.total_cycles}, 0, 0});
    trace.push_back({{e1.run(single_b).stats.total_cycles}, 0, 0});

    SimResult gang_sim =
        simulate_pool_schedule(trace, {.num_dies = 4,
                                       .policy = PoolPolicy::kFifoGang});
    SimResult share_sim =
        simulate_pool_schedule(trace, {.num_dies = 4,
                                       .policy = PoolPolicy::kSpaceShare});
    EXPECT_LT(share_sim.makespan, gang_sim.makespan)
        << "modeled: backfill must shorten the mixed trace";
    EXPECT_GT(share_sim.utilization(), gang_sim.utilization());

    // Live pool: the schedule it records as lease spans on the trace.
    // Paused start makes the backlog (and thus the schedule shape)
    // deterministic. Job ids follow submission: 1 = the 2-wide job,
    // 2 = the 3-wide job, 3 and 4 = the singles.
    auto run_trace = [&](PoolPolicy policy) {
        obs::TraceSession session;
        session.install();
        PoolConfig pool;
        pool.num_dies = 4;
        pool.policy = policy;
        pool.start_paused = true;
        PoolScheduler scheduler(model, cfg, pool);
        std::vector<std::future<ShardedRunResult>> sharded;
        sharded.push_back(scheduler.submit_sharded(wide2, p2));
        sharded.push_back(scheduler.submit_sharded(wide3, p3));
        std::vector<std::future<RunResult>> singles;
        singles.push_back(scheduler.submit(single_a));
        singles.push_back(scheduler.submit(single_b));
        scheduler.start();
        scheduler.drain();
        for (auto &f : sharded)
            f.get();
        for (auto &f : singles)
            f.get();
        session.uninstall();
        EXPECT_EQ(session.dropped(), 0u);
        return lease_schedule(session);
    };
    // Backfill: a single starts while the 2-wide head job still holds
    // both its dies, i.e. before either of its slices ends.
    auto backfilled = [](std::map<unsigned, JobLeases> &jobs) {
        const double single =
            std::min(jobs[3].first_start, jobs[4].first_start);
        return single < jobs[1].first_end;
    };

    std::map<unsigned, JobLeases> gang = run_trace(PoolPolicy::kFifoGang);
    ASSERT_EQ(gang.size(), 4u);
    // Gang: the 3-wide job starts only once a 2-wide slice has freed
    // its die, and strict FIFO holds the singles until it has started.
    EXPECT_GE(gang[2].first_start, gang[1].first_end);
    EXPECT_GE(std::min(gang[3].first_start, gang[4].first_start),
              gang[2].last_start);
    EXPECT_FALSE(backfilled(gang));

    std::map<unsigned, JobLeases> share =
        run_trace(PoolPolicy::kSpaceShare);
    ASSERT_EQ(share.size(), 4u);
    // Space share: the singles backfill beside the 2-wide job. (Not
    // "before the 3-wide job ends": when a late die wakeup lets the
    // 3-wide job's last two slices run side by side, its end and the
    // first single's start are microseconds apart, in either order.)
    EXPECT_TRUE(backfilled(share))
        << "no single started before the 2-wide job's first slice ended";
}

TEST(PoolScheduler, LiveAndSimulatedPoolsPickInTheSameOrder)
{
    // One die, every job queued before start(), no aging: the live
    // pool's lease order must equal the simulator's start order under
    // every policy, since both take each pick from one DispatchCore.
    // Deadlines sit 1 s apart, so the microseconds between live
    // admissions cannot reorder kEdf.
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample sample = make_random_sample(
        make_ring_lattice(64, 2), 16, 0, 0x5A);
    const int priorities[] = {0, 2, 1, 2, 0};
    const double deadlines_ms[] = {3000, 5000, 1000, 4000, 2000};
    constexpr std::size_t kJobs = 5;
    std::vector<SimJob> trace;
    for (std::size_t j = 0; j < kJobs; ++j)
        trace.push_back({{100}, 0, priorities[j],
                         static_cast<std::uint64_t>(deadlines_ms[j])});

    std::map<PoolPolicy, std::vector<std::size_t>> orders;
    for (PoolPolicy policy :
         {PoolPolicy::kFifoGang, PoolPolicy::kSpaceShare,
          PoolPolicy::kPriority, PoolPolicy::kEdf}) {
        SimResult sim =
            simulate_pool_schedule(trace, {.num_dies = 1, .policy = policy});
        std::vector<std::size_t> sim_order(kJobs);
        for (std::size_t j = 0; j < kJobs; ++j)
            sim_order[j] = j;
        std::sort(sim_order.begin(), sim_order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return sim.job_start(a) < sim.job_start(b);
                  });

        obs::TraceSession session;
        session.install();
        PoolConfig pool;
        pool.num_dies = 1;
        pool.policy = policy;
        pool.aging_ms = 0.0;
        pool.start_paused = true;
        PoolScheduler scheduler(model, {}, pool);
        std::vector<std::future<RunResult>> futures;
        for (std::size_t j = 0; j < kJobs; ++j) {
            JobSpec spec;
            spec.priority = priorities[j];
            spec.deadline_ms = deadlines_ms[j];
            futures.push_back(scheduler.submit(sample, RunOptions{}, spec));
        }
        scheduler.start();
        scheduler.drain();
        for (auto &f : futures)
            f.get();
        session.uninstall();
        std::map<unsigned, JobLeases> leases = lease_schedule(session);
        ASSERT_EQ(leases.size(), kJobs) << pool_policy_name(policy);
        // Job ids follow submission from 1.
        std::vector<std::size_t> live_order;
        for (const auto &[id, job] : leases)
            live_order.push_back(id - 1);
        std::sort(live_order.begin(), live_order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return leases[a + 1].first_start <
                          leases[b + 1].first_start;
                  });
        EXPECT_EQ(live_order, sim_order) << pool_policy_name(policy);
        orders[policy] = sim_order;
    }
    EXPECT_NE(orders[PoolPolicy::kPriority], orders[PoolPolicy::kFifoGang]);
    EXPECT_NE(orders[PoolPolicy::kEdf], orders[PoolPolicy::kFifoGang]);
}

TEST(PoolScheduler, EveryPolicySameAnswersDifferentSchedule)
{
    Model model = make_model(ModelKind::kGin, 9, 3);
    EngineConfig cfg;
    cfg.p_node = 1;
    GraphSample small = make_random_sample(
        testing::make_random_graph(0, 48, 0xAB), 9, 3, 0xAB1);
    GraphSample large = make_random_sample(
        make_ring_lattice(3000, 2), 9, 3, 0xAB2);
    ShardConfig shard;
    shard.num_shards = 3;

    Engine reference(model, cfg);
    RunResult small_ref = reference.run(small);
    ShardedRunResult large_ref =
        ShardedEngine(model, cfg, shard).run(large);

    for (PoolPolicy policy :
         {PoolPolicy::kFifoGang, PoolPolicy::kSpaceShare,
          PoolPolicy::kPriority}) {
        PoolConfig pool;
        pool.num_dies = 4;
        pool.policy = policy;
        PoolScheduler scheduler(model, cfg, pool);
        auto fs = scheduler.submit(small, {}, JobSpec{.priority = 1});
        auto fl = scheduler.submit_sharded(large, shard);
        RunResult rs = fs.get();
        ShardedRunResult rl = fl.get();
        EXPECT_TRUE(rs.embeddings == small_ref.embeddings)
            << pool_policy_name(policy);
        EXPECT_TRUE(rl.embeddings == large_ref.embeddings)
            << pool_policy_name(policy);
    }
}

// ---- Admission control -------------------------------------------------

TEST(PoolScheduler, BlockedProducerIsVisibleAndUnblocks)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample sample = make_random_sample(
        make_ring_lattice(64, 2), 16, 0, 0x99);

    PoolConfig pool;
    pool.num_dies = 1;
    pool.queue_capacity = 1;
    pool.admission = AdmissionPolicy::kBlock;
    pool.start_paused = true;
    PoolScheduler scheduler(model, {}, pool);

    auto f1 = scheduler.submit(sample); // fills the queue
    std::future<RunResult> f2;
    std::thread producer(
        [&] { f2 = scheduler.submit(sample); }); // must block

    // Deterministic wait: the producer is provably parked, not slept.
    while (scheduler.stats().blocked_producers == 0)
        std::this_thread::yield();
    EXPECT_EQ(scheduler.stats().blocked_producers, 1u);

    scheduler.start();
    producer.join();
    EXPECT_NO_THROW(f1.get());
    EXPECT_NO_THROW(f2.get());
    EXPECT_EQ(scheduler.stats().fast.completed, 2u);
}

TEST(PoolScheduler, RejectPolicyShedsAndCounts)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample sample = make_random_sample(
        make_ring_lattice(64, 2), 16, 0, 0x98);

    PoolConfig pool;
    pool.num_dies = 1;
    pool.queue_capacity = 1;
    pool.admission = AdmissionPolicy::kReject;
    pool.start_paused = true;
    PoolScheduler scheduler(model, {}, pool);

    auto f1 = scheduler.submit(sample);
    EXPECT_THROW(scheduler.submit(sample), ServiceOverloaded);
    EXPECT_EQ(scheduler.stats().fast.rejected, 1u);
    scheduler.drain();
    EXPECT_NO_THROW(f1.get());
    EXPECT_EQ(scheduler.stats().fast.completed, 1u);
}

TEST(PoolScheduler, RejectionAttributesToTheSubmittingPath)
{
    // Pins the admit() path-selection fix: the tally for a rejected
    // job must land on the path that submitted it (sharded here), and
    // the path reference must be chosen under the scheduler mutex.
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample sample = make_random_sample(
        make_ring_lattice(256, 2), 16, 0, 0x9A);

    ShardConfig shard;
    shard.num_shards = 2;
    PoolConfig pool;
    pool.num_dies = 2;
    pool.queue_capacity = 1;
    pool.admission = AdmissionPolicy::kReject;
    pool.start_paused = true;
    PoolScheduler scheduler(model, {}, pool);

    auto f1 = scheduler.submit_sharded(sample, shard); // fills the queue
    EXPECT_THROW(scheduler.submit_sharded(sample, shard),
                 ServiceOverloaded);
    PoolStats st = scheduler.stats();
    EXPECT_EQ(st.sharded.rejected, 1u);
    EXPECT_EQ(st.fast.rejected, 0u);

    scheduler.drain();
    EXPECT_NO_THROW(f1.get());
    EXPECT_EQ(scheduler.stats().sharded.completed, 1u);
}

TEST(PoolScheduler, SubmitAfterShutdownThrows)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample sample = make_random_sample(
        make_ring_lattice(64, 2), 16, 0, 0x97);
    PoolScheduler scheduler(model, {}, {});
    scheduler.shutdown();
    EXPECT_THROW(scheduler.submit(sample), std::logic_error);
}

TEST(PoolScheduler, QueueDelayTelemetryRecorded)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample sample = make_random_sample(
        make_ring_lattice(256, 2), 16, 0, 0x96);
    PoolConfig pool;
    pool.num_dies = 1;
    pool.start_paused = true;
    PoolScheduler scheduler(model, {}, pool);
    auto f = scheduler.submit(sample);
    scheduler.drain();
    f.get();
    PoolStats st = scheduler.stats();
    EXPECT_GT(st.queue_delay_p50_ms, 0.0)
        << "the paused interval is queueing delay";
    EXPECT_GE(st.queue_delay_p99_ms, st.queue_delay_p50_ms);
    ASSERT_EQ(st.dies.size(), 1u);
    EXPECT_EQ(st.dies[0].leases, 1u);
    EXPECT_GT(st.dies[0].busy_ms, 0.0);
}

// ---- Mixed concurrent workloads through one pool ---------------------

TEST(PoolRouting, MixedStressStaysBitIdenticalAndDropsNothing)
{
    // Interleaved small (fast-path) and large (sharded) graphs through
    // one pool: every future must be fulfilled and every answer must
    // match the sequential single-engine reference bit for bit
    // (p_node=1 preserves accumulation order end to end).
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    EngineConfig cfg;
    cfg.p_node = 1;

    ShardConfig shard;
    shard.num_shards = 4;
    PoolConfig pool;
    pool.num_dies = 4;
    pool.policy = PoolPolicy::kSpaceShare;
    pool.queue_capacity = 8; // small: exercises backpressure too
    PoolScheduler scheduler(model, cfg, pool);

    constexpr int kSmall = 30;
    constexpr int kLarge = 6;
    std::vector<GraphSample> small_samples;
    std::vector<GraphSample> large_samples;
    for (int i = 0; i < kSmall; ++i)
        small_samples.push_back(make_random_sample(
            testing::make_random_graph(i, 30 + i, 500 + i), 16, 0,
            600 + i));
    for (int i = 0; i < kLarge; ++i)
        large_samples.push_back(make_random_sample(
            make_ring_lattice(6000 + 500 * i, 2), 16, 0, 700 + i));

    // Interleave: every 5th submission is large.
    std::vector<std::future<RunResult>> small_futures;
    std::vector<std::future<ShardedRunResult>> large_futures;
    int s = 0, l = 0;
    while (s < kSmall || l < kLarge) {
        for (int k = 0; k < 5 && s < kSmall; ++k, ++s)
            small_futures.push_back(
                scheduler.submit(small_samples[s]));
        if (l < kLarge)
            large_futures.push_back(
                scheduler.submit_sharded(large_samples[l++], shard));
    }

    Engine reference(model, cfg);
    ShardedEngine sharded_ref(model, cfg, shard);
    for (int i = 0; i < kSmall; ++i) {
        RunResult pooled = small_futures[i].get();
        RunResult direct = reference.run(small_samples[i]);
        EXPECT_TRUE(pooled.embeddings == direct.embeddings) << i;
        EXPECT_EQ(pooled.prediction, direct.prediction) << i;
    }
    for (int i = 0; i < kLarge; ++i) {
        ShardedRunResult pooled = large_futures[i].get();
        ShardedRunResult direct = sharded_ref.run(large_samples[i]);
        EXPECT_TRUE(pooled.embeddings == direct.embeddings) << i;
        EXPECT_EQ(pooled.prediction, direct.prediction) << i;
        EXPECT_GT(pooled.stats.comm_cycles, 0u) << i;
    }

    scheduler.drain();
    PoolStats st = scheduler.stats();
    EXPECT_EQ(st.fast.submitted, static_cast<std::size_t>(kSmall));
    EXPECT_EQ(st.fast.completed, static_cast<std::size_t>(kSmall));
    EXPECT_EQ(st.sharded.submitted, static_cast<std::size_t>(kLarge));
    EXPECT_EQ(st.sharded.completed, static_cast<std::size_t>(kLarge));
    EXPECT_EQ(st.fast.failed + st.sharded.failed, 0u);
    EXPECT_EQ(st.fast.rejected + st.sharded.rejected, 0u)
        << "kBlock admission must never drop an admission future";
    EXPECT_GE(st.peak_busy_dies, 2u);
}

} // namespace
} // namespace flowgnn
