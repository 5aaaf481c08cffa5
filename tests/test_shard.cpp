/**
 * @file
 * flowgnn::shard tests: shard assignment strategies, cut metrics, halo
 * closure, sharded-vs-single-engine equivalence (bit-exact where the
 * message arrival order is preserved), multi-die stats composition and
 * communication modeling, and size routing onto one pool.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"
#include "pool/scheduler.h"
#include "shard/sharded_engine.h"
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

// ---- Shard assignment & cut metrics -----------------------------------

TEST(ShardAssignment, StrategiesCoverAllShardsAndStayInRange)
{
    CooGraph g = make_ring_lattice(100, 2);
    for (ShardStrategy strategy :
         {ShardStrategy::kModulo, ShardStrategy::kContiguous,
          ShardStrategy::kGreedyBalanced, ShardStrategy::kBfsContiguous,
          ShardStrategy::kLdg, ShardStrategy::kFennel,
          ShardStrategy::kHdrf}) {
        auto assignment = shard_assignment(g, 4, strategy);
        ASSERT_EQ(assignment.size(), g.num_nodes) << shard_strategy_name(strategy);
        std::vector<std::size_t> owned(4, 0);
        for (auto s : assignment) {
            ASSERT_LT(s, 4u);
            ++owned[s];
        }
        for (std::uint32_t s = 0; s < 4; ++s)
            EXPECT_GT(owned[s], 0u)
                << shard_strategy_name(strategy) << " left shard " << s
                << " empty";
    }
}

TEST(ShardAssignment, ContiguousIsBalancedIdRanges)
{
    // Balanced ranges: sizes differ by at most one (4/3/3), unlike
    // the old ceil-chunk split's 4/4/2.
    CooGraph g = make_chain(10);
    auto assignment =
        shard_assignment(g, 3, ShardStrategy::kContiguous);
    std::vector<std::uint32_t> expected = {0, 0, 0, 0, 1, 1, 1, 2, 2, 2};
    EXPECT_EQ(assignment, expected);
}

TEST(ShardAssignment, NearShardCountSplitsLeaveNoShardEmpty)
{
    // Regression: the ceil-chunk split emptied trailing shards
    // whenever ceil(n/P)*(P-1) >= n — 9 nodes over 8 shards gave
    // shards 0-3 two nodes and shards 5-7 none. Balanced ranges must
    // give every shard at least one node whenever n >= P.
    CooGraph g = make_chain(9);
    for (ShardStrategy strategy : {ShardStrategy::kContiguous,
                                   ShardStrategy::kBfsContiguous}) {
        auto assignment = shard_assignment(g, 8, strategy);
        std::vector<std::size_t> owned(8, 0);
        for (auto s : assignment)
            ++owned[s];
        for (std::uint32_t s = 0; s < 8; ++s) {
            EXPECT_GE(owned[s], 1u)
                << shard_strategy_name(strategy) << " shard " << s;
            EXPECT_LE(owned[s], 2u)
                << shard_strategy_name(strategy) << " shard " << s;
        }
    }
}

TEST(ShardAssignment, FewerNodesThanShardsYieldsOnePerShard)
{
    // n < P is defined behavior: exactly n shards own one node each;
    // make_shard_plan drops the rest, so downstream layers see the
    // effective P.
    CooGraph g = make_chain(3);
    for (ShardStrategy strategy :
         {ShardStrategy::kModulo, ShardStrategy::kContiguous,
          ShardStrategy::kBfsContiguous}) {
        auto assignment = shard_assignment(g, 8, strategy);
        ASSERT_EQ(assignment.size(), 3u);
        std::vector<std::size_t> owned(8, 0);
        for (auto s : assignment) {
            ASSERT_LT(s, 8u);
            ++owned[s];
        }
        std::size_t non_empty = 0;
        for (std::uint32_t s = 0; s < 8; ++s) {
            EXPECT_LE(owned[s], 1u) << shard_strategy_name(strategy);
            non_empty += owned[s] > 0;
        }
        EXPECT_EQ(non_empty, 3u) << shard_strategy_name(strategy);
    }
    // Streaming strategies may pair a node with an already-placed
    // neighbor (capacity allows 2 here), but still produce several
    // small non-empty shards rather than a collapse.
    for (ShardStrategy strategy :
         {ShardStrategy::kLdg, ShardStrategy::kFennel,
          ShardStrategy::kHdrf}) {
        auto assignment = shard_assignment(g, 8, strategy);
        ASSERT_EQ(assignment.size(), 3u);
        std::vector<std::size_t> owned(8, 0);
        for (auto s : assignment) {
            ASSERT_LT(s, 8u);
            ++owned[s];
        }
        std::size_t non_empty = 0;
        for (std::uint32_t s = 0; s < 8; ++s) {
            EXPECT_LE(owned[s], 2u) << shard_strategy_name(strategy);
            non_empty += owned[s] > 0;
        }
        EXPECT_GE(non_empty, 2u) << shard_strategy_name(strategy);
    }
}

TEST(ShardAssignment, BfsContiguousRecoversLocalityOnShuffledRing)
{
    // A ring lattice whose ids were randomly permuted: contiguous id
    // ranges are meaningless, but the structure is still a ring. BFS
    // renumbering walks the ring, so the contiguous split over BFS
    // ranks must cut a tiny fraction of edges where modulo cuts
    // everything.
    CooGraph ring = make_ring_lattice(512, 2);
    std::vector<NodeId> perm(ring.num_nodes);
    for (NodeId v = 0; v < ring.num_nodes; ++v)
        perm[v] = v;
    Rng rng(0x5EED);
    for (NodeId v = ring.num_nodes; v > 1; --v)
        std::swap(perm[v - 1],
                  perm[static_cast<NodeId>(rng.uniform_index(v))]);
    CooGraph shuffled;
    shuffled.num_nodes = ring.num_nodes;
    for (const Edge &e : ring.edges)
        shuffled.edges.push_back({perm[e.src], perm[e.dst]});

    auto bfs = shard_assignment(shuffled, 4,
                                ShardStrategy::kBfsContiguous);
    auto modulo = shard_assignment(shuffled, 4, ShardStrategy::kModulo);
    auto contiguous =
        shard_assignment(shuffled, 4, ShardStrategy::kContiguous);

    double bfs_cut = shard_cut_fraction(shuffled, bfs);
    EXPECT_LT(bfs_cut, shard_cut_fraction(shuffled, modulo));
    EXPECT_LT(bfs_cut, shard_cut_fraction(shuffled, contiguous))
        << "on shuffled ids plain contiguous is as lost as modulo";
    EXPECT_LT(bfs_cut, 0.1);

    // Every shard still owns a fair share of nodes.
    std::vector<std::size_t> owned(4, 0);
    for (auto s : bfs)
        ++owned[s];
    for (std::uint32_t s = 0; s < 4; ++s)
        EXPECT_GE(owned[s], shuffled.num_nodes / 8);
}

TEST(ShardCutMetrics, ModuloCutsEveryLocalEdgeContiguousAlmostNone)
{
    // Ring-lattice edges connect ids at distance <= 2; modulo-4
    // assignment separates every such pair, contiguous keeps all but
    // the boundary edges together.
    CooGraph g = make_ring_lattice(64, 2);
    auto modulo = shard_assignment(g, 4, ShardStrategy::kModulo);
    auto contiguous = shard_assignment(g, 4, ShardStrategy::kContiguous);

    EXPECT_EQ(shard_cut_edges(g, modulo), g.num_edges());
    EXPECT_DOUBLE_EQ(shard_cut_fraction(g, modulo), 1.0);

    std::size_t contiguous_cut = shard_cut_edges(g, contiguous);
    EXPECT_GT(contiguous_cut, 0u);
    EXPECT_LT(shard_cut_fraction(g, contiguous), 0.1);

    // One shard: nothing to cut.
    auto one = shard_assignment(g, 1, ShardStrategy::kContiguous);
    EXPECT_EQ(shard_cut_edges(g, one), 0u);
}

// ---- Halo closure -----------------------------------------------------

TEST(ShardClosure, ChainClosureGrowsOneHopPerLevel)
{
    CooGraph g = make_chain(10);
    auto assignment =
        shard_assignment(g, 2, ShardStrategy::kContiguous); // 0-4 | 5-9

    using V = std::vector<NodeId>;
    EXPECT_EQ(shard_closure(g, assignment, 0, 0), (V{0, 1, 2, 3, 4}));
    EXPECT_EQ(shard_closure(g, assignment, 0, 1),
              (V{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(shard_closure(g, assignment, 0, 2),
              (V{0, 1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(shard_closure(g, assignment, 1, 2),
              (V{3, 4, 5, 6, 7, 8, 9}));
    // Deep closures saturate at the whole graph.
    EXPECT_EQ(shard_closure(g, assignment, 0, 50).size(), 10u);
}

TEST(ShardClosure, AscendingOrderOnRandomGraph)
{
    Rng rng(99);
    CooGraph g = make_barabasi_albert(200, 2, rng);
    auto assignment = shard_assignment(g, 3, ShardStrategy::kModulo);
    for (std::uint32_t s = 0; s < 3; ++s) {
        auto closure = shard_closure(g, assignment, s, 2);
        EXPECT_TRUE(
            std::is_sorted(closure.begin(), closure.end()))
            << "closure must preserve global id order (bit-exactness "
               "of single-NT sharded runs depends on it)";
    }
}

TEST(ShardClosure, ReplicationFactorMatchesHandCount)
{
    CooGraph g = make_chain(10);
    auto assignment =
        shard_assignment(g, 2, ShardStrategy::kContiguous);
    // 2-hop closures are {0..6} and {3..9}: 14 copies of 10 nodes.
    EXPECT_DOUBLE_EQ(
        shard_replication_factor(g, assignment, 2, 2), 1.4);
    EXPECT_DOUBLE_EQ(
        shard_replication_factor(g, assignment, 2, 0), 1.0);
}

// ---- ShardedEngine functional equivalence -----------------------------

TEST(ShardedEngine, MessageHopsCountsNeighborConsumingStages)
{
    // 5 conv layers for the dim-100 families, encoder excluded.
    Model gin = make_model(ModelKind::kGin, 9, 3);
    EXPECT_EQ(ShardedEngine::message_hops(gin), 5u);
    Model gcn16 = make_model(ModelKind::kGcn16, 9, 0);
    EXPECT_EQ(ShardedEngine::message_hops(gcn16), 2u);
}

TEST(ShardedEngine, BitExactWithSingleNtUnitAcrossModels)
{
    // With one NT unit, message arrival is src-major on every die and
    // on the single engine, and shard closures preserve global id
    // order — so the merged embeddings must be bit-identical.
    Rng rng(0xACE);
    GraphSample sample = make_random_sample(
        make_barabasi_albert(300, 2, rng), 9, 3, 0xACE1);

    EngineConfig cfg;
    cfg.p_node = 1;
    ShardConfig shard;
    shard.num_shards = 3;
    shard.strategy = ShardStrategy::kContiguous;

    for (ModelKind kind :
         {ModelKind::kGcn, ModelKind::kGin, ModelKind::kGat,
          ModelKind::kPna, ModelKind::kDgn, ModelKind::kSage,
          ModelKind::kSgc}) {
        Model model = make_model(kind, 9, 3);
        RunResult single = Engine(model, cfg).run(sample);
        ShardedRunResult sharded =
            ShardedEngine(model, cfg, shard).run(sample);

        EXPECT_TRUE(sharded.embeddings == single.embeddings)
            << model_name(kind);
        EXPECT_EQ(sharded.prediction, single.prediction)
            << model_name(kind);
        EXPECT_EQ(sharded.shards.size(), 3u) << model_name(kind);
    }
}

TEST(ShardedEngine, EveryStrategyWithinToleranceAtDefaultConfig)
{
    // Multiple NT units reorder modeled message arrival differently per
    // die, but values come from the functional kernel's src-major
    // gather, so the tolerance below is met exactly.
    Rng rng(0xBEE);
    GraphSample sample = make_random_sample(
        make_barabasi_albert(240, 2, rng), 9, 3, 0xBEE1);
    Model model = make_model(ModelKind::kGin, 9, 3);
    RunResult single = Engine(model, {}).run(sample);

    for (ShardStrategy strategy :
         {ShardStrategy::kModulo, ShardStrategy::kContiguous,
          ShardStrategy::kGreedyBalanced, ShardStrategy::kBfsContiguous,
          ShardStrategy::kLdg, ShardStrategy::kFennel,
          ShardStrategy::kHdrf}) {
        ShardConfig shard;
        shard.num_shards = 4;
        shard.strategy = strategy;
        ShardedRunResult sharded =
            ShardedEngine(model, {}, shard).run(sample);
        EXPECT_LT(max_abs_diff(sharded.embeddings, single.embeddings),
                  1e-4f)
            << shard_strategy_name(strategy);
        EXPECT_NEAR(sharded.prediction, single.prediction, 1e-4)
            << shard_strategy_name(strategy);
    }
}

TEST(ShardedEngine, VirtualNodeModelFallsBackToSingleDie)
{
    Rng rng(0xCAB);
    GraphSample sample = make_random_sample(
        make_molecule(40, rng), 9, 3, 0xCAB1);
    Model model = make_model(ModelKind::kGinVn, 9, 3);

    ShardConfig shard;
    shard.num_shards = 4;
    ShardedRunResult sharded =
        ShardedEngine(model, {}, shard).run(sample);
    RunResult single = Engine(model, {}).run(sample);

    EXPECT_EQ(sharded.shards.size(), 1u)
        << "the virtual node's halo is the whole graph; sharding must "
           "fall back";
    EXPECT_TRUE(sharded.embeddings == single.embeddings);
    EXPECT_EQ(sharded.prediction, single.prediction);
    EXPECT_EQ(sharded.stats.comm_cycles, 0u);
}

TEST(ShardedEngine, MoreShardsThanNodesStillCorrect)
{
    GraphSample sample =
        make_random_sample(make_chain(3), 9, 0, 0xFEED);
    Model model = make_model(ModelKind::kGcn, 9, 0);
    EngineConfig cfg;
    cfg.p_node = 1;
    ShardConfig shard;
    shard.num_shards = 8;
    ShardedRunResult sharded =
        ShardedEngine(model, cfg, shard).run(sample);
    RunResult single = Engine(model, cfg).run(sample);
    EXPECT_TRUE(sharded.embeddings == single.embeddings);
    EXPECT_LE(sharded.shards.size(), 3u);
}

// ---- Timing model -----------------------------------------------------

TEST(ShardedEngine, CommCyclesAndStatsComposition)
{
    GraphSample sample = make_random_sample(
        make_ring_lattice(2000, 2), 16, 0, 0x1234);
    Model model = make_model(ModelKind::kGcn16, 16, 0);

    EngineConfig cfg; // defaults: 2 NT / 4 MP units
    ShardConfig shard;
    shard.num_shards = 4;
    shard.strategy = ShardStrategy::kContiguous;
    ShardedRunResult r = ShardedEngine(model, cfg, shard).run(sample);

    ASSERT_EQ(r.shards.size(), 4u);
    std::uint64_t slowest = 0;
    std::uint64_t max_comm = 0;
    for (const ShardInfo &info : r.shards) {
        EXPECT_GT(info.owned_nodes, 0u);
        EXPECT_GT(info.halo_nodes, 0u)
            << "a cut ring must replicate boundary nodes";
        EXPECT_GT(info.comm_cycles, 0u);
        EXPECT_GE(info.comm_cycles,
                  shard.link.latency_cycles);
        slowest = std::max(slowest,
                           info.stats.total_cycles + info.comm_cycles);
        max_comm = std::max(max_comm, info.comm_cycles);
    }
    EXPECT_EQ(r.stats.total_cycles, slowest)
        << "composed cycles must be the slowest fetch+compute chain";
    EXPECT_EQ(r.stats.comm_cycles, max_comm);
    EXPECT_EQ(r.stats.nt_units.size(), 4u * cfg.p_node);
    EXPECT_EQ(r.stats.mp_units.size(), 4u * cfg.p_edge);
    EXPECT_GT(r.cut_edges, 0u);
    EXPECT_GT(r.replication_factor, 1.0);
    EXPECT_GT(r.latency_ms(), 0.0);
}

TEST(ShardStats, OverlapModePinsBothCompositionFormulas)
{
    // Two dies with hand-built stats pin the serial and the
    // overlapped chain formulas exactly.
    RunStats a;
    a.total_cycles = 1000;
    a.load_cycles = 300;
    RunStats b;
    b.total_cycles = 800;
    b.load_cycles = 100;
    std::vector<RunStats> dies = {a, b};
    std::vector<std::uint64_t> comm = {500, 50};

    // Serial: comm fully precedes compute on each die.
    RunStats serial = compose_shard_stats(dies, comm, false);
    ASSERT_EQ(serial.die_cycles.size(), 2u);
    EXPECT_EQ(serial.die_cycles[0], 1500u); // 1000 + 500
    EXPECT_EQ(serial.die_cycles[1], 850u);  // 800 + 50
    EXPECT_EQ(serial.total_cycles, 1500u);

    // Overlap: the fetch hides behind the die's input DMA; only the
    // excess over load_cycles delays the compute remainder.
    RunStats overlap = compose_shard_stats(dies, comm, true);
    EXPECT_EQ(overlap.die_cycles[0], 1200u); // max(500,300) + 700
    EXPECT_EQ(overlap.die_cycles[1], 800u);  // max(50,100) + 700
    EXPECT_EQ(overlap.total_cycles, 1200u);

    // Die-level utilization of the makespan falls out of die_cycles.
    auto util = serial.die_utilizations();
    ASSERT_EQ(util.size(), 2u);
    EXPECT_DOUBLE_EQ(util[0], 1.0);
    EXPECT_DOUBLE_EQ(util[1], 850.0 / 1500.0);
}

TEST(ShardedEngine, OverlapNeverSlowerThanSerialAndSameAnswer)
{
    GraphSample sample = make_random_sample(
        make_ring_lattice(4000, 2), 16, 0, 0xC0DE);
    Model model = make_model(ModelKind::kGcn16, 16, 0);

    ShardConfig serial;
    serial.num_shards = 4;
    ShardConfig overlapped = serial;
    overlapped.link.overlap = true;

    ShardedRunResult rs = ShardedEngine(model, {}, serial).run(sample);
    ShardedRunResult ro =
        ShardedEngine(model, {}, overlapped).run(sample);

    EXPECT_TRUE(ro.embeddings == rs.embeddings)
        << "overlap changes timing composition only, never answers";
    EXPECT_LT(ro.stats.total_cycles, rs.stats.total_cycles)
        << "a cut ring has real comm to hide behind the load prefix";
    // Overlap can hide at most the whole fetch.
    std::uint64_t compute_only = 0;
    for (const ShardInfo &info : ro.shards)
        compute_only =
            std::max(compute_only, info.stats.total_cycles);
    EXPECT_GE(ro.stats.total_cycles, compute_only);
}

TEST(ShardedEngine, ShardingALocalGraphReducesModeledCycles)
{
    GraphSample sample = make_random_sample(
        make_ring_lattice(20000, 2), 16, 0, 0x4242);
    Model model = make_model(ModelKind::kGcn16, 16, 0);

    ShardConfig one;
    one.num_shards = 1;
    ShardConfig two;
    two.num_shards = 2;
    two.strategy = ShardStrategy::kContiguous;

    std::uint64_t cycles1 =
        ShardedEngine(model, {}, one).run(sample).stats.total_cycles;
    std::uint64_t cycles2 =
        ShardedEngine(model, {}, two).run(sample).stats.total_cycles;
    EXPECT_LT(cycles2, cycles1)
        << "two dies with tiny halos must beat one die";
}

// ---- Size routing onto one pool ---------------------------------------

TEST(PoolRouting, RoutesByThresholdAndMatchesDirectRuns)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample small =
        make_random_sample(make_chain(12), 16, 0, 0x77);
    GraphSample large = make_random_sample(
        make_ring_lattice(5000, 2), 16, 0, 0x78);

    EngineConfig cfg;
    cfg.p_node = 1;
    constexpr std::size_t kShardThresholdNodes = 1000;
    ShardConfig shard;
    shard.num_shards = 4;
    shard.strategy = ShardStrategy::kContiguous;
    PoolConfig pool;
    pool.num_dies = 4;
    PoolScheduler scheduler(model, cfg, pool);

    ASSERT_LT(small.num_nodes(), kShardThresholdNodes);
    ASSERT_GE(large.num_nodes(), kShardThresholdNodes);
    RunResult small_result = scheduler.submit(small).get();
    ShardedRunResult large_result =
        scheduler.submit_sharded(large, shard).get();

    PoolStats st = scheduler.stats();
    EXPECT_EQ(st.fast.completed, 1u);
    EXPECT_EQ(st.sharded.completed, 1u);
    EXPECT_EQ(st.sharded.failed, 0u);

    RunResult small_direct = Engine(model, cfg).run(small);
    EXPECT_TRUE(small_result.embeddings == small_direct.embeddings);

    ShardedRunResult large_direct =
        ShardedEngine(model, cfg, shard).run(large);
    EXPECT_TRUE(large_result.embeddings == large_direct.embeddings);
    EXPECT_EQ(large_result.prediction, large_direct.prediction);
    EXPECT_EQ(large_result.stats.total_cycles,
              large_direct.stats.total_cycles);
    EXPECT_GT(large_result.stats.comm_cycles, 0u);
}

TEST(PoolRouting, RejectPolicyShedsShardedPathWhenFull)
{
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample large = make_random_sample(
        make_ring_lattice(2000, 2), 16, 0, 0x91);

    ShardConfig shard;
    shard.num_shards = 2;
    PoolConfig pool;
    pool.queue_capacity = 1;
    pool.admission = AdmissionPolicy::kReject;
    pool.start_paused = true;
    PoolScheduler scheduler(model, {}, pool);

    auto f1 = scheduler.submit_sharded(large, shard);
    EXPECT_THROW(scheduler.submit_sharded(large, shard), ServiceOverloaded);
    EXPECT_EQ(scheduler.stats().sharded.rejected, 1u);

    scheduler.drain();
    EXPECT_NO_THROW(f1.get());
    PoolStats st = scheduler.stats();
    EXPECT_EQ(st.sharded.completed, 1u);
    EXPECT_EQ(st.sharded.submitted, 1u);
}

// ---- Effective-P agreement when slices are dropped --------------------

TEST(ShardPlanEffectiveP, AllLayersAgreeWhenRequestExceedsNodes)
{
    // A P=4 request on a 3-node graph drops one empty slice. Every
    // consumer of the plan — the plan itself, merge_shard_results,
    // compose_shard_stats (via die_cycles), and the pool's die-lease
    // accounting — must agree that the effective P is 3.
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    GraphSample sample = make_random_sample(make_chain(3), 16, 0, 0x3A);
    EngineConfig cfg;
    cfg.p_node = 1;
    ShardConfig shard;
    shard.num_shards = 4;
    shard.strategy = ShardStrategy::kContiguous;

    GraphSample prepared = model.prepare(sample);
    ShardPlan plan = make_shard_plan(model, prepared, shard);
    EXPECT_TRUE(plan.sharded);
    ASSERT_EQ(plan.slices.size(), 3u)
        << "one slice per non-empty shard";

    RunResult single = Engine(model, cfg).run(sample);
    ShardedRunResult direct =
        ShardedEngine(model, cfg, shard).run(sample);
    EXPECT_EQ(direct.shards.size(), 3u);
    EXPECT_EQ(direct.stats.die_cycles.size(), 3u)
        << "compose_shard_stats must see exactly the live slices";
    EXPECT_EQ(direct.stats.die_utilizations().size(), 3u);
    EXPECT_TRUE(direct.embeddings == single.embeddings);
    EXPECT_EQ(direct.prediction, single.prediction);

    // The pool must lease exactly one die per live slice — a lease
    // for the dropped slice would deadlock a gang start on a full
    // pool and skew utilization.
    PoolConfig pool_cfg;
    pool_cfg.num_dies = 4;
    PoolScheduler scheduler(model, cfg, pool_cfg);
    ShardedRunResult pooled =
        scheduler.submit_sharded(sample, shard).get();
    scheduler.drain();
    PoolStats st = scheduler.stats();
    std::size_t leases = 0;
    for (const DieStats &d : st.dies)
        leases += d.leases;
    EXPECT_EQ(leases, 3u);
    EXPECT_LE(st.peak_busy_dies, 3u);
    EXPECT_EQ(pooled.shards.size(), 3u);
    EXPECT_TRUE(pooled.embeddings == single.embeddings);
}

// ---- The acceptance-scale check ---------------------------------------

TEST(ShardedEngine, HundredThousandNodeShardedRunMatchesSingleEngine)
{
    // The tentpole's bar: a >= 100k-node graph, sharded 4 ways, must
    // reproduce the single-engine embeddings. With one NT unit the
    // accumulation order is preserved, so "within 1e-4" is met the
    // strong way: bit-identical.
    GraphSample sample = make_random_sample(
        make_ring_lattice(100000, 2), 16, 0, 0xB16);
    Model model = make_model(ModelKind::kGcn16, 16, 0);
    EngineConfig cfg;
    cfg.p_node = 1;

    RunResult single = Engine(model, cfg).run(sample);

    ShardConfig shard;
    shard.num_shards = 4;
    shard.strategy = ShardStrategy::kContiguous;
    ShardedRunResult sharded =
        ShardedEngine(model, cfg, shard).run(sample);

    ASSERT_EQ(sharded.embeddings.rows(), single.embeddings.rows());
    EXPECT_EQ(max_abs_diff(sharded.embeddings, single.embeddings), 0.0f);
    EXPECT_EQ(sharded.prediction, single.prediction);
    EXPECT_LT(sharded.stats.total_cycles, single.stats.total_cycles)
        << "4 dies must beat 1 on a locality-friendly 100k graph";
}

} // namespace
} // namespace flowgnn
