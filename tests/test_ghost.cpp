/**
 * @file
 * flowgnn::ghost tests: ghost-set construction and local graphs pinned
 * on hand-checkable graphs, per-layer exchange word counts against the
 * planner's published schedule, degenerate shapes (empty boundaries,
 * n < P), the shared shard assignment, the resident footprint on
 * power-law graphs, layered comm composition, config validation, and
 * the pool's ghost jobs (P die leases, preemption under load).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "ghost/ghost_engine.h"
#include "graph/generators.h"
#include "pool/scheduler.h"
#include "tensor/ops.h"
#include "testing_util.h"

namespace flowgnn {
namespace {

using testing::make_random_sample;

/** Symmetric chain 0-1-...-(n-1), edges in both directions. */
CooGraph
make_chain(NodeId n)
{
    CooGraph g;
    g.num_nodes = n;
    for (NodeId i = 0; i + 1 < n; ++i) {
        g.edges.push_back({i, i + 1});
        g.edges.push_back({i + 1, i});
    }
    return g;
}

std::uint64_t
peak_resident(const ShardedRunResult &r)
{
    std::uint64_t peak = 0;
    for (const ShardInfo &info : r.shards)
        peak = std::max(peak, info.resident_words);
    return peak;
}

// ---- Ghost-set construction -------------------------------------------

TEST(GhostPlan, ChainGhostSetsAndLocalGraphsByHand)
{
    // Chain 0-1-2-3, contiguous P=2: die 0 owns {0,1}, die 1 owns
    // {2,3}. Die 0's in-boundary is {2} (edge 2->1), die 1's is {1}
    // (edge 1->2). Each die's local graph holds exactly the edges into
    // its owned vertices.
    Model model = make_model(ModelKind::kGcn16, 8, 0);
    GraphSample sample = make_random_sample(make_chain(4), 8, 0, 0x5F);
    GraphSample prepared = model.prepare(sample);

    ShardConfig cfg;
    cfg.num_shards = 2;
    cfg.strategy = ShardStrategy::kContiguous;
    GhostPlan plan = make_ghost_plan(model, prepared, cfg);

    ASSERT_TRUE(plan.sharded);
    ASSERT_EQ(plan.shards.size(), 2u);
    EXPECT_EQ(plan.cut_edges, 2u); // 1->2 and 2->1

    const GhostShard &d0 = plan.shards[0];
    EXPECT_EQ(d0.locals, (std::vector<NodeId>{0, 1, 2}));
    EXPECT_EQ(d0.is_owned, (std::vector<std::uint8_t>{1, 1, 0}));
    EXPECT_EQ(d0.info.owned_nodes, 2u);
    EXPECT_EQ(d0.info.ghost_nodes, 1u);
    // Edges into {0,1}: (0,1),(1,0),(2,1) — 3 local edges, one fetched
    // across the cut.
    EXPECT_EQ(plan.local_graph(0).num_nodes(), 3u);
    EXPECT_EQ(plan.local_graph(0).num_edges(), 3u);
    EXPECT_EQ(d0.info.fetched_edges, 1u);

    const GhostShard &d1 = plan.shards[1];
    EXPECT_EQ(d1.locals, (std::vector<NodeId>{1, 2, 3}));
    EXPECT_EQ(d1.is_owned, (std::vector<std::uint8_t>{0, 1, 1}));
    EXPECT_EQ(d1.info.ghost_nodes, 1u);
    EXPECT_EQ(plan.local_graph(1).num_edges(), 3u);

    // Local endpoints are remapped into each die's `locals` index
    // space and stay in global edge order.
    for (std::size_t t = 0; t < plan.shards.size(); ++t) {
        const GraphRef local = plan.local_graph(t);
        for (std::size_t i = 0; i < local.num_edges(); ++i) {
            ASSERT_LT(local.src(i), local.num_nodes());
            ASSERT_LT(local.dst(i), local.num_nodes());
            EXPECT_TRUE(plan.shards[t].is_owned[local.dst(i)])
                << "every local edge lands on an owned destination";
        }
    }

    // 4 owned + 2 ghosts over 4 vertices.
    EXPECT_DOUBLE_EQ(plan.replication_factor, 1.5);
}

TEST(GhostPlan, WordCountsFollowPublishedExchangeSchedule)
{
    // Same chain: fan_out = 1 and ghosts = 1 on both dies, so the
    // planner's per-die word totals must equal the schedule summed
    // over exchanging stages plus the one-time bootstrap metadata.
    Model model = make_model(ModelKind::kGcn16, 8, 0);
    GraphSample sample = make_random_sample(make_chain(4), 8, 0, 0x60);
    GraphSample prepared = model.prepare(sample);

    ShardConfig cfg;
    cfg.num_shards = 2;
    cfg.strategy = ShardStrategy::kContiguous;
    GhostPlan plan = make_ghost_plan(model, prepared, cfg);
    ASSERT_TRUE(plan.sharded);

    // One exchange per neighbor-consuming stage: the model's message
    // hops.
    std::size_t exchanges = 0;
    for (std::uint8_t x : plan.exchange_at_stage)
        exchanges += x;
    EXPECT_EQ(exchanges, message_hops(model));

    const std::uint64_t meta_words = 3; // id + 2 degrees, no DGN field
    std::uint64_t per_ghost_words = meta_words;
    for (std::size_t si = 0; si < plan.exchange_dim.size(); ++si) {
        EXPECT_EQ(plan.exchange_dim[si] > 0,
                  plan.exchange_at_stage[si] != 0) << "stage " << si;
        per_ghost_words += plan.exchange_dim[si];
    }

    for (const GhostShard &shard : plan.shards) {
        EXPECT_EQ(shard.info.exchange_send_words, per_ghost_words);
        EXPECT_EQ(shard.info.exchange_recv_words, per_ghost_words);
        // Per-layer link cycles: only exchanging stages pay, and the
        // total matches the ShardInfo comm bookkeeping.
        std::uint64_t summed = 0;
        ASSERT_EQ(shard.layer_comm_cycles.size(),
                  plan.exchange_at_stage.size());
        for (std::size_t si = 0; si < shard.layer_comm_cycles.size();
             ++si) {
            if (!plan.exchange_at_stage[si])
                EXPECT_EQ(shard.layer_comm_cycles[si], 0u);
            else
                EXPECT_GE(shard.layer_comm_cycles[si],
                          cfg.link.latency_cycles);
            summed += shard.layer_comm_cycles[si];
        }
        EXPECT_EQ(shard.info.comm_cycles, summed);
        EXPECT_GT(shard.info.resident_words, 0u);
    }
}

// ---- Degenerate shapes ------------------------------------------------

TEST(GhostPlan, EmptyBoundaryPaysNoCommAtAll)
{
    // Two disconnected chains split exactly at the component boundary:
    // the cut is empty, so no die has ghosts and every exchange is
    // free.
    CooGraph g;
    g.num_nodes = 8;
    for (NodeId i = 0; i + 1 < 4; ++i) {
        g.edges.push_back({i, i + 1});
        g.edges.push_back({i + 1, i});
        g.edges.push_back({NodeId(4 + i), NodeId(5 + i)});
        g.edges.push_back({NodeId(5 + i), NodeId(4 + i)});
    }
    Model model = make_model(ModelKind::kGcn16, 8, 0);
    GraphSample sample = make_random_sample(std::move(g), 8, 0, 0x61);
    GraphSample prepared = model.prepare(sample);

    ShardConfig cfg;
    cfg.num_shards = 2;
    cfg.strategy = ShardStrategy::kContiguous;
    GhostPlan plan = make_ghost_plan(model, prepared, cfg);

    ASSERT_TRUE(plan.sharded);
    EXPECT_EQ(plan.cut_edges, 0u);
    EXPECT_DOUBLE_EQ(plan.replication_factor, 1.0);
    for (const GhostShard &shard : plan.shards) {
        EXPECT_EQ(shard.info.ghost_nodes, 0u);
        EXPECT_EQ(shard.info.exchange_send_words, 0u);
        EXPECT_EQ(shard.info.exchange_recv_words, 0u);
        EXPECT_EQ(shard.info.comm_cycles, 0u);
        for (std::uint64_t c : shard.layer_comm_cycles)
            EXPECT_EQ(c, 0u);
    }

    // And the composed run pays zero comm while matching the
    // unsharded answer bit for bit (single NT unit).
    EngineConfig ecfg;
    ecfg.p_node = 1;
    ShardedRunResult sharded =
        ShardedEngine(model, ecfg, cfg).run(sample);
    RunResult single = Engine(model, ecfg).run(sample);
    EXPECT_EQ(sharded.stats.comm_cycles, 0u);
    EXPECT_TRUE(sharded.embeddings == single.embeddings);
}

TEST(GhostPlan, FewerNodesThanShardsDropsEmptyDies)
{
    Model model = make_model(ModelKind::kGcn16, 8, 0);
    GraphSample sample = make_random_sample(make_chain(3), 8, 0, 0x62);
    GraphSample prepared = model.prepare(sample);

    ShardConfig cfg;
    cfg.num_shards = 8;
    cfg.strategy = ShardStrategy::kContiguous;
    GhostPlan plan = make_ghost_plan(model, prepared, cfg);

    ASSERT_TRUE(plan.sharded);
    ASSERT_LE(plan.shards.size(), 3u);
    std::size_t owned_total = 0;
    for (const GhostShard &shard : plan.shards) {
        EXPECT_GE(shard.info.owned_nodes, 1u)
            << "dies owning nothing must be dropped";
        owned_total += shard.info.owned_nodes;
    }
    EXPECT_EQ(owned_total, 3u);

    EngineConfig ecfg;
    ecfg.p_node = 1;
    ShardedRunResult sharded =
        ShardedEngine(model, ecfg, cfg).run(sample);
    RunResult single = Engine(model, ecfg).run(sample);
    EXPECT_TRUE(sharded.embeddings == single.embeddings);
    EXPECT_EQ(sharded.prediction, single.prediction);
}

TEST(GhostPlan, SingleShardAndVirtualNodeFallBackUnsharded)
{
    Rng rng(0x63);
    GraphSample sample = make_random_sample(
        make_barabasi_albert(60, 2, rng), 9, 3, 0x631);

    Model gcn = make_model(ModelKind::kGcn, 9, 3);
    ShardConfig one;
    one.num_shards = 1;
    GhostPlan p1 = make_ghost_plan(gcn, gcn.prepare(sample), one);
    EXPECT_FALSE(p1.sharded);
    ASSERT_EQ(p1.shards.size(), 1u);
    EXPECT_GT(p1.shards[0].info.resident_words, 0u);

    Model vn = make_model(ModelKind::kGinVn, 9, 3);
    ShardConfig four;
    four.num_shards = 4;
    GhostPlan p4 = make_ghost_plan(vn, vn.prepare(sample), four);
    EXPECT_FALSE(p4.sharded)
        << "the virtual node makes every vertex a boundary vertex";
}

// ---- Partition sharing ------------------------------------------------

TEST(GhostPlan, UsesShardPlanAssignmentIncludingRestream)
{
    Rng rng(0x64);
    GraphSample sample = make_random_sample(
        make_barabasi_albert(400, 3, rng), 8, 0, 0x641);
    Model model = make_model(ModelKind::kGcn16, 8, 0);
    GraphSample prepared = model.prepare(sample);

    ShardConfig cfg;
    cfg.num_shards = 4;
    cfg.strategy = ShardStrategy::kFennel;
    cfg.restream_passes = 2;

    GhostPlan ghost = make_ghost_plan(model, prepared, cfg);
    EXPECT_EQ(ghost.assignment,
              shard_plan_assignment(prepared.graph, cfg))
        << "every sharded consumer must place vertices identically";
}

// ---- The capacity story -----------------------------------------------

TEST(GhostEngine, ResidentFootprintUnderHalfOneDieOnPowerLawGraph)
{
    // On a power-law graph an L-hop closure per die saturates toward
    // the whole graph; the ghost fringe stays cut-sized. Peak per-die
    // resident words at P=8 must stay under half the one-die
    // footprint, while the answer matches the one-die run.
    Rng rng(0x65);
    GraphSample sample = make_random_sample(
        make_barabasi_albert(4000, 8, rng), 16, 0, 0x651);
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    EngineConfig ecfg;
    ecfg.p_node = 1;

    ShardConfig one;
    one.num_shards = 1;
    ShardConfig eight;
    eight.num_shards = 8;
    eight.strategy = ShardStrategy::kFennel;

    ShardedRunResult r1 = ShardedEngine(model, ecfg, one).run(sample);
    ShardedRunResult r8 = ShardedEngine(model, ecfg, eight).run(sample);

    EXPECT_TRUE(r8.embeddings == r1.embeddings)
        << "sharding changes the timing model, never the math";
    EXPECT_LT(peak_resident(r8), peak_resident(r1) / 2)
        << "ghost state must stay ~n/P plus a cut-sized fringe";
    EXPECT_LT(r8.replication_factor, 8.0);
}

// ---- Layered comm composition -----------------------------------------

TEST(GhostEngine, LayeredCommComposesSerialChainsExactly)
{
    GraphSample sample = make_random_sample(
        make_ring_lattice(2000, 2), 16, 0, 0x66);
    Model model = make_model(ModelKind::kGcn16, 16, 0);

    ShardConfig cfg;
    cfg.num_shards = 4;
    cfg.strategy = ShardStrategy::kContiguous;
    ShardedRunResult r = ShardedEngine(model, {}, cfg).run(sample);

    ASSERT_EQ(r.shards.size(), 4u);
    std::uint64_t slowest = 0;
    for (const ShardInfo &info : r.shards) {
        EXPECT_GT(info.comm_cycles, 0u);
        slowest = std::max(slowest,
                           info.stats.total_cycles + info.comm_cycles);
    }
    EXPECT_EQ(r.stats.total_cycles, slowest)
        << "serial composition: every exchange extends its die's chain";

    // The composed per-layer profile covers every exchanging stage and
    // sums to at least the bottleneck die's comm total.
    ASSERT_FALSE(r.stats.layer_comm_cycles.empty());
    std::uint64_t layered = 0;
    for (std::uint64_t c : r.stats.layer_comm_cycles)
        layered += c;
    EXPECT_GE(layered, r.stats.comm_cycles);
}

TEST(GhostEngine, OverlapHidesExchangesAndKeepsTheAnswer)
{
    GraphSample sample = make_random_sample(
        make_ring_lattice(4000, 2), 16, 0, 0x67);
    Model model = make_model(ModelKind::kGcn16, 16, 0);

    ShardConfig serial;
    serial.num_shards = 4;
    ShardConfig overlapped = serial;
    overlapped.link.overlap = true;

    ShardedRunResult rs = ShardedEngine(model, {}, serial).run(sample);
    ShardedRunResult ro =
        ShardedEngine(model, {}, overlapped).run(sample);

    EXPECT_TRUE(ro.embeddings == rs.embeddings);
    EXPECT_LE(ro.stats.total_cycles, rs.stats.total_cycles);
    // Overlap can hide comm behind compute but never shrink compute.
    std::uint64_t compute_only = 0;
    for (const ShardInfo &info : ro.shards)
        compute_only =
            std::max(compute_only, info.stats.total_cycles);
    EXPECT_GE(ro.stats.total_cycles, compute_only);
}

TEST(GhostEngine, ShardedPlanRejectsAnInvalidEngineConfig)
{
    // The config is validated before any die is priced: a zero MP-unit
    // count would divide by zero in the bank map, and a zero clock
    // would report an infinite latency.
    Model model = make_model(ModelKind::kGcn16, 8, 0);
    GraphSample prepared = model.prepare(make_random_sample(
        make_ring_lattice(200, 2), 8, 0, 0x68));
    ShardConfig shard;
    shard.num_shards = 2;
    const GhostPlan plan = make_ghost_plan(model, prepared, shard);
    ASSERT_TRUE(plan.sharded);

    EngineConfig no_mp_units;
    no_mp_units.p_edge = 0;
    EngineConfig no_clock;
    no_clock.clock_mhz = 0.0;
    for (const EngineConfig &bad : {no_mp_units, no_clock})
        EXPECT_THROW(run_ghost_plan(model, bad, prepared, plan, RunOptions{},
                                    shard.link),
                     std::invalid_argument);
}

// ---- Pool integration -------------------------------------------------

TEST(GhostPool, PoolGhostJobMatchesDirectRunOnPLeases)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample sample = make_random_sample(
        make_ring_lattice(3000, 2), 16, 0, 0x68);
    EngineConfig ecfg;
    ecfg.p_node = 1;

    ShardConfig shard;
    shard.num_shards = 4;
    shard.strategy = ShardStrategy::kContiguous;

    ShardedRunResult direct =
        ShardedEngine(model, ecfg, shard).run(sample);

    PoolConfig pool_cfg;
    pool_cfg.num_dies = 4;
    PoolScheduler scheduler(model, ecfg, pool_cfg);
    ShardedRunResult pooled =
        scheduler.submit_sharded(sample, shard).get();
    scheduler.drain();

    EXPECT_TRUE(pooled.embeddings == direct.embeddings);
    EXPECT_EQ(pooled.prediction, direct.prediction);
    EXPECT_EQ(pooled.stats.total_cycles, direct.stats.total_cycles);
    EXPECT_EQ(pooled.shards.size(), direct.shards.size());

    // A ghost job models P dies, so it leases P: one runs the plan,
    // the others hold theirs until the run ends.
    PoolStats st = scheduler.stats();
    std::size_t leases = 0;
    for (const DieStats &d : st.dies)
        leases += d.leases;
    EXPECT_EQ(leases, 4u);
    EXPECT_EQ(st.peak_busy_dies, 4u);
    EXPECT_EQ(st.sharded.completed, 1u);
}

TEST(GhostPool, PriorityPreemptionOfGhostJobsNeverHangs)
{
    // Two P=2 ghost jobs fill both dies; urgent singles arriving
    // behind them preempt at layer boundaries, and aging keeps the
    // ghost jobs coming back. A preempted run yields all its dies, a
    // preempted holder yields alone, and a holder never waits on a
    // run without a die — so every future resolves, and every answer
    // is bit-identical to a direct run.
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    EngineConfig ecfg;
    ecfg.p_node = 1;
    GraphSample big_a = make_random_sample(
        make_ring_lattice(20000, 2), 16, 0, 0x69);
    GraphSample big_b = make_random_sample(
        make_ring_lattice(16000, 2), 16, 0, 0x6A);
    std::vector<GraphSample> smalls;
    for (int i = 0; i < 6; ++i)
        smalls.push_back(make_random_sample(
            make_ring_lattice(400 + 50 * i, 2), 16, 0, 0x6B + i));

    ShardConfig shard;
    shard.num_shards = 2;
    shard.strategy = ShardStrategy::kContiguous;
    const ShardedRunResult want_a =
        ShardedEngine(model, ecfg, shard).run(big_a);
    const ShardedRunResult want_b =
        ShardedEngine(model, ecfg, shard).run(big_b);
    Engine engine(model, ecfg);

    PoolConfig pool_cfg;
    pool_cfg.num_dies = 2;
    pool_cfg.policy = PoolPolicy::kPriority;
    pool_cfg.enable_preemption = true;
    pool_cfg.aging_ms = 1.0;
    pool_cfg.start_paused = true;
    PoolScheduler scheduler(model, ecfg, pool_cfg);

    auto fa = scheduler.submit_sharded(big_a, shard);
    auto fb = scheduler.submit_sharded(big_b, shard);
    scheduler.start();
    // Admit the urgent singles only once a ghost job holds both dies,
    // so each admission has a running victim to preempt.
    while (scheduler.stats().peak_busy_dies < 2)
        std::this_thread::yield();
    std::vector<std::future<RunResult>> fs;
    for (const GraphSample &s : smalls)
        fs.push_back(scheduler.submit(s, {}, JobSpec{.priority = 5}));

    constexpr auto kTimeout = std::chrono::seconds(60);
    ASSERT_EQ(fa.wait_for(kTimeout), std::future_status::ready);
    ASSERT_EQ(fb.wait_for(kTimeout), std::future_status::ready);
    for (auto &f : fs)
        ASSERT_EQ(f.wait_for(kTimeout), std::future_status::ready);

    const ShardedRunResult ra = fa.get();
    const ShardedRunResult rb = fb.get();
    EXPECT_TRUE(ra.embeddings == want_a.embeddings);
    EXPECT_EQ(ra.prediction, want_a.prediction);
    EXPECT_EQ(ra.stats.total_cycles, want_a.stats.total_cycles);
    EXPECT_TRUE(rb.embeddings == want_b.embeddings);
    EXPECT_EQ(rb.prediction, want_b.prediction);
    EXPECT_EQ(rb.stats.total_cycles, want_b.stats.total_cycles);
    for (std::size_t i = 0; i < fs.size(); ++i) {
        const RunResult got = fs[i].get();
        const RunResult want = engine.run(smalls[i]);
        EXPECT_TRUE(got.embeddings == want.embeddings) << i;
        EXPECT_EQ(got.stats.total_cycles, want.stats.total_cycles) << i;
    }
    scheduler.drain();
    const PoolStats st = scheduler.stats();
    EXPECT_EQ(st.sharded.completed, 2u);
    EXPECT_EQ(st.fast.completed, smalls.size());
    EXPECT_LE(st.peak_busy_dies, 2u);
    EXPECT_GE(st.preemptions, 1u);
}

} // namespace
} // namespace flowgnn
