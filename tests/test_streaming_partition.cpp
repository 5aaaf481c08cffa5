/**
 * @file
 * Streaming-partitioner suite: the deduplicated undirected adjacency,
 * LDG/Fennel/HDRF quality and balance guarantees, and the property
 * tests every ShardStrategy (old and new) must satisfy on adversarial
 * inputs — empty graphs, fewer nodes than shards, disconnected
 * components, stars, heavy multigraphs, edgeless graphs — and a
 * differential sweep that holds the adjacency build and every
 * assignment to frozen references (tests/testing_util.h) bit for bit.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "graph/generators.h"
#include "graph/partition.h"
#include "graph/streaming_partition.h"
#include "shard/shard_plan.h"
#include "tensor/rng.h"
#include "testing_util.h"

namespace flowgnn {
namespace {

constexpr ShardStrategy kAllStrategies[] = {
    ShardStrategy::kModulo,        ShardStrategy::kContiguous,
    ShardStrategy::kGreedyBalanced, ShardStrategy::kBfsContiguous,
    ShardStrategy::kLdg,           ShardStrategy::kFennel,
    ShardStrategy::kHdrf,
};

constexpr ShardStrategy kStreaming[] = {
    ShardStrategy::kLdg,
    ShardStrategy::kFennel,
    ShardStrategy::kHdrf,
};

constexpr ShardStrategy kExisting[] = {
    ShardStrategy::kModulo,
    ShardStrategy::kContiguous,
    ShardStrategy::kGreedyBalanced,
    ShardStrategy::kBfsContiguous,
};

/** Max owned nodes over all shards. */
std::size_t
max_owned(const std::vector<std::uint32_t> &assignment, std::uint32_t p)
{
    std::vector<std::size_t> owned(p, 0);
    for (auto s : assignment)
        ++owned[s];
    return *std::max_element(owned.begin(), owned.end());
}

/** First-occurrence-preserving simple graph: drops self-loops and
 * repeated (src, dst) pairs regardless of direction multiplicity. */
CooGraph
simplified(const CooGraph &graph)
{
    CooGraph out;
    out.num_nodes = graph.num_nodes;
    std::set<std::pair<NodeId, NodeId>> seen;
    for (const Edge &e : graph.edges) {
        if (e.src == e.dst)
            continue;
        if (seen.insert({e.src, e.dst}).second)
            out.edges.push_back(e);
    }
    return out;
}

/** Duplicates every edge a varying number of times and sprinkles
 * self-loops: the adversarial multigraph for the dedupe paths. */
CooGraph
multigraphed(const CooGraph &graph)
{
    CooGraph out;
    out.num_nodes = graph.num_nodes;
    for (std::size_t i = 0; i < graph.edges.size(); ++i) {
        const Edge &e = graph.edges[i];
        // 1..4 copies, non-uniform so inflated neighbor counts would
        // actually flip greedy decisions if not deduplicated.
        const std::size_t copies = 1 + i % 4;
        for (std::size_t c = 0; c < copies; ++c)
            out.edges.push_back(e);
        if (i % 7 == 0)
            out.edges.push_back({e.src, e.src});
    }
    return out;
}

// ---- The shared deduplicated adjacency --------------------------------

TEST(UndirectedCsr, DedupesParallelEdgesAndDropsSelfLoops)
{
    CooGraph g;
    g.num_nodes = 4;
    g.edges = {{0, 1}, {0, 1}, {1, 0}, {2, 2}, {3, 1}, {1, 3}, {3, 1}};
    UndirectedCsr adj = build_undirected_csr(g);

    ASSERT_EQ(adj.num_nodes(), 4u);
    EXPECT_EQ(adj.degree(0), 1u) << "three parallel 0-1 edges, one neighbor";
    EXPECT_EQ(adj.degree(1), 2u);
    EXPECT_EQ(adj.degree(2), 0u) << "a self-loop is not a neighbor";
    EXPECT_EQ(adj.degree(3), 1u);

    // First-occurrence neighbor order: node 1 saw 0 before 3.
    EXPECT_EQ(adj.nbr[adj.row_begin(1)], 0u);
    EXPECT_EQ(adj.nbr[adj.row_begin(1) + 1], 3u);
}

TEST(UndirectedCsr, MultigraphEqualsItsSimpleGraph)
{
    Rng rng(0xD00D);
    CooGraph base = make_barabasi_albert(120, 2, rng);
    CooGraph multi = multigraphed(base);
    UndirectedCsr a = build_undirected_csr(multi);
    UndirectedCsr b = build_undirected_csr(simplified(multi));
    EXPECT_EQ(a.offsets, b.offsets);
    EXPECT_EQ(a.nbr, b.nbr);
}

TEST(UndirectedCsr, RejectsOutOfRangeEndpoints)
{
    CooGraph g;
    g.num_nodes = 2;
    g.edges = {{0, 5}};
    EXPECT_THROW(build_undirected_csr(g), std::invalid_argument);
}

// ---- Property tests over adversarial inputs ---------------------------

TEST(StreamingPartitionProperty, CompleteInRangeOnAdversarialInputs)
{
    std::vector<std::pair<const char *, CooGraph>> inputs;

    inputs.push_back({"empty", CooGraph{}});

    CooGraph single;
    single.num_nodes = 1;
    inputs.push_back({"single-node", single});

    CooGraph tiny;
    tiny.num_nodes = 3;
    tiny.edges = {{0, 1}, {1, 0}, {1, 2}, {2, 1}};
    inputs.push_back({"fewer-nodes-than-shards", tiny});

    // Two 10-cliques with no edges between them.
    CooGraph cliques;
    cliques.num_nodes = 20;
    for (NodeId base : {NodeId(0), NodeId(10)})
        for (NodeId i = 0; i < 10; ++i)
            for (NodeId j = 0; j < 10; ++j)
                if (i != j)
                    cliques.edges.push_back({base + i, base + j});
    inputs.push_back({"disconnected", cliques});

    CooGraph star;
    star.num_nodes = 101;
    for (NodeId i = 1; i <= 100; ++i) {
        star.edges.push_back({i, 0});
        star.edges.push_back({0, i});
    }
    inputs.push_back({"star", star});

    Rng rng(0xFACE);
    inputs.push_back(
        {"heavy-multigraph",
         multigraphed(make_barabasi_albert(64, 2, rng))});

    CooGraph edgeless;
    edgeless.num_nodes = 10;
    inputs.push_back({"edgeless", edgeless});

    for (const auto &[name, g] : inputs) {
        for (ShardStrategy strategy : kAllStrategies) {
            for (std::uint32_t p : {1u, 2u, 3u, 8u}) {
                SCOPED_TRACE(::testing::Message()
                             << name << " / "
                             << shard_strategy_name(strategy)
                             << " / P=" << p);
                auto assignment = shard_assignment(g, p, strategy);
                ASSERT_EQ(assignment.size(), g.num_nodes);
                for (auto s : assignment)
                    ASSERT_LT(s, p);
            }
        }
    }
}

TEST(StreamingPartitionProperty, DeterministicAcrossCalls)
{
    Rng rng(0xAB);
    CooGraph g = make_barabasi_albert(400, 3, rng);
    for (ShardStrategy strategy : kStreaming)
        EXPECT_EQ(shard_assignment(g, 4, strategy),
                  shard_assignment(g, 4, strategy))
            << shard_strategy_name(strategy);
}

TEST(StreamingPartitionProperty, InvalidArgumentsThrow)
{
    CooGraph g;
    g.num_nodes = 4;
    const UndirectedCsr adj = build_undirected_csr(g);
    EXPECT_THROW(ldg_partition(adj, 0), std::invalid_argument);
    StreamingPartitionConfig bad;
    bad.balance_slack = 0.5;
    EXPECT_THROW(fennel_partition(adj, 2, bad), std::invalid_argument);
}

// ---- Balance guarantees -----------------------------------------------

TEST(StreamingPartitionBalance, HardCapacityBoundsLoadImbalance)
{
    Rng rng(0xBA1);
    CooGraph g = make_barabasi_albert(2000, 3, rng);
    const StreamingPartitionConfig config;
    for (std::uint32_t p : {4u, 8u}) {
        const std::size_t ideal = (g.num_nodes + p - 1) / p;
        const std::size_t cap = static_cast<std::size_t>(
            std::ceil(config.balance_slack * double(ideal)));
        for (ShardStrategy strategy : kStreaming)
            EXPECT_LE(max_owned(shard_assignment(g, p, strategy), p),
                      cap)
                << shard_strategy_name(strategy) << " P=" << p;
    }
}

TEST(StreamingPartitionBalance, EdgelessGraphSpreadsRoundRobin)
{
    // Neighborless vertices tie on score; the least-loaded tie-break
    // must spread them instead of collapsing onto shard 0 (the
    // kGreedyBalanced failure mode on zero-degree nodes).
    CooGraph g;
    g.num_nodes = 10;
    for (ShardStrategy strategy : kStreaming) {
        auto assignment = shard_assignment(g, 4, strategy);
        std::vector<std::size_t> owned(4, 0);
        for (auto s : assignment)
            ++owned[s];
        for (std::uint32_t s = 0; s < 4; ++s)
            EXPECT_GE(owned[s], 2u) << shard_strategy_name(strategy);
    }
}

// ---- Multigraph invariance (the BFS-CSR dedupe fix) -------------------

TEST(StreamingPartitionInvariance, MultigraphMatchesSimpleGraph)
{
    // Partitioning consults the deduplicated adjacency, so a
    // multigraph must partition exactly like its underlying simple
    // graph: inflated neighbor multiplicities and self-loops must not
    // flip any greedy decision or BFS degree. (Without the dedupe the
    // non-uniform duplication in multigraphed() skews LDG/Fennel
    // intersection counts and HDRF degrees.)
    Rng rng(0x5111);
    CooGraph base = make_barabasi_albert(300, 2, rng);
    CooGraph multi = multigraphed(base);
    CooGraph simple = simplified(multi);
    for (ShardStrategy strategy :
         {ShardStrategy::kBfsContiguous, ShardStrategy::kLdg,
          ShardStrategy::kFennel, ShardStrategy::kHdrf}) {
        EXPECT_EQ(shard_assignment(multi, 4, strategy),
                  shard_assignment(simple, 4, strategy))
            << shard_strategy_name(strategy);
    }
}

// ---- Cut quality on power-law graphs (the tentpole claim) -------------

TEST(StreamingPartitionQuality, EveryStreamingStrategyBeatsEveryExistingOnPowerLaw)
{
    // The reason these partitioners exist: on power-law graphs BFS
    // ranks order poorly (a few hops reach everything), so all
    // existing strategies cut most edges. Each streaming strategy
    // must beat every existing one on cut fraction at P in {4, 8}.
    Rng rng(0xB0BA);
    CooGraph g = make_barabasi_albert(5000, 4, rng);
    for (std::uint32_t p : {4u, 8u}) {
        double worst_new = 0.0;
        double best_old = 1.0;
        for (ShardStrategy strategy : kStreaming)
            worst_new = std::max(
                worst_new,
                shard_cut_fraction(
                    g, shard_assignment(g, p, strategy)));
        for (ShardStrategy strategy : kExisting)
            best_old = std::min(
                best_old,
                shard_cut_fraction(
                    g, shard_assignment(g, p, strategy)));
        EXPECT_LT(worst_new, best_old) << "P=" << p;
    }
}

TEST(Restreaming, PriorAwarePassesNeverWorsenAndUsuallyImproveTheCut)
{
    // Nishimura & Ugander restreaming: re-running a streaming
    // partitioner with the previous assignment as the neighbor-lookup
    // prior lets early vertices see late neighbors. On a power-law
    // graph every streaming strategy's cut must improve after one
    // pass, and each pass must keep the assignment valid and balanced.
    Rng rng(0x31);
    CooGraph g = make_barabasi_albert(3000, 4, rng);
    for (ShardStrategy strategy : kStreaming) {
        ShardConfig cfg;
        cfg.num_shards = 8;
        cfg.strategy = strategy;
        cfg.restream_passes = 0;
        double prev_cut = shard_cut_fraction(
            g, shard_plan_assignment(g, cfg));
        double pass0 = prev_cut;
        for (std::uint32_t passes = 1; passes <= 3; ++passes) {
            cfg.restream_passes = passes;
            auto assignment = shard_plan_assignment(g, cfg);
            ASSERT_EQ(assignment.size(), g.num_nodes);
            std::vector<std::size_t> owned(8, 0);
            for (auto s : assignment) {
                ASSERT_LT(s, 8u);
                ++owned[s];
            }
            for (std::uint32_t s = 0; s < 8; ++s)
                EXPECT_GT(owned[s], 0u)
                    << shard_strategy_name(strategy) << " pass "
                    << passes;
            double cut = shard_cut_fraction(g, assignment);
            EXPECT_LE(cut, prev_cut * 1.02)
                << shard_strategy_name(strategy) << " pass " << passes
                << ": restreaming should not regress the cut";
            prev_cut = cut;
        }
        EXPECT_LT(prev_cut, pass0)
            << shard_strategy_name(strategy)
            << ": three restream passes must beat the one-shot stream";
    }
}

TEST(Restreaming, ExplicitPriorOverloadFeedsUnplacedNeighbors)
{
    // The 4-arg shard_assignment overload with a full prior must see
    // every neighbor placed (no kUnassigned fallthrough), so its
    // result generally differs from the one-shot stream; feeding a
    // strategy that ignores priors must reproduce the plain result.
    Rng rng(0x32);
    CooGraph g = make_barabasi_albert(1000, 4, rng);
    auto one_shot =
        shard_assignment(g, 4, ShardStrategy::kFennel);
    auto restreamed =
        shard_assignment(g, 4, ShardStrategy::kFennel, &one_shot);
    ASSERT_EQ(restreamed.size(), g.num_nodes);
    EXPECT_LE(shard_cut_fraction(g, restreamed),
              shard_cut_fraction(g, one_shot) * 1.02);

    auto contiguous =
        shard_assignment(g, 4, ShardStrategy::kContiguous);
    EXPECT_EQ(shard_assignment(g, 4, ShardStrategy::kContiguous,
                               &one_shot),
              contiguous)
        << "non-streaming strategies are prior-oblivious";
}

TEST(Restreaming, ConvergedAssignmentStopsEarly)
{
    // Prior-oblivious strategies are instant fixed points: the first
    // restream pass reproduces its input, the convergence break fires,
    // and any pass count yields the one-shot assignment. (Streaming
    // strategies may 2-cycle rather than converge — see the quality
    // test above — so the break is a shortcut, not a guarantee.)
    CooGraph g = make_ring_lattice(256, 2);
    ShardConfig none;
    none.num_shards = 4;
    none.strategy = ShardStrategy::kContiguous;
    ShardConfig many = none;
    many.restream_passes = 30;
    EXPECT_EQ(shard_plan_assignment(g, none),
              shard_plan_assignment(g, many));

    // High pass counts stay well-defined for streaming strategies too:
    // valid shard ids, nothing unassigned.
    ShardConfig ldg;
    ldg.num_shards = 4;
    ldg.strategy = ShardStrategy::kLdg;
    ldg.restream_passes = 30;
    auto assignment = shard_plan_assignment(g, ldg);
    ASSERT_EQ(assignment.size(), g.num_nodes);
    for (auto s : assignment)
        ASSERT_LT(s, 4u);
}

TEST(StreamingPartitionQuality, BfsStillWinsOnLocalityGraphs)
{
    // The decision table's other half: on a graph with a walkable
    // geometry (shuffled ring), BFS renumbering stays the right
    // choice; streaming partitioners are merely competitive.
    Rng rng(0x21);
    CooGraph ring = permute_node_ids(make_ring_lattice(4096, 2), rng);
    auto bfs_cut = shard_cut_fraction(
        ring,
        shard_assignment(ring, 4, ShardStrategy::kBfsContiguous));
    for (ShardStrategy strategy : kStreaming) {
        double cut = shard_cut_fraction(
            ring, shard_assignment(ring, 4, strategy));
        EXPECT_LT(bfs_cut, cut) << shard_strategy_name(strategy);
        EXPECT_LT(cut, shard_cut_fraction(
                           ring, shard_assignment(
                                     ring, 4,
                                     ShardStrategy::kContiguous)))
            << shard_strategy_name(strategy)
            << " must still beat a blind id split";
    }
}

// ---- Differential sweep against the frozen references ----------------

using testing::NaiveStreamKind;
using testing::naive_build_undirected_csr;
using testing::naive_stream_partition;

struct SweepGraph {
    const char *name;
    CooGraph graph;
};

/** Adversarial and power-law inputs. The two large ones hold more
 * than kSerialCutoff edges, so every thread count splits them. */
std::vector<SweepGraph>
sweep_graphs()
{
    std::vector<SweepGraph> out;
    Rng rng(0x5EE9);
    out.push_back({"empty", CooGraph{}});

    CooGraph isolated;
    isolated.num_nodes = 12; // 0, 3, 5..11 isolated; 4 only self-loops
    isolated.edges = {{1, 2}, {2, 1}, {4, 4}, {1, 2}, {4, 4}, {2, 1}};
    out.push_back({"isolated-nodes", isolated});

    CooGraph tiny; // n < P for P = 5, 8
    tiny.num_nodes = 3;
    tiny.edges = {{0, 1}, {1, 2}, {2, 0}, {0, 1}, {1, 1}};
    out.push_back({"n-below-P", tiny});

    CooGraph star;
    star.num_nodes = 80;
    for (NodeId leaf = 1; leaf < star.num_nodes; ++leaf) {
        star.edges.push_back({leaf, 0});
        if (leaf % 3 == 0)
            star.edges.push_back({0, leaf});
    }
    out.push_back({"star", star});

    out.push_back(
        {"ba-multigraph",
         multigraphed(make_barabasi_albert(400, 3, rng))});
    out.push_back({"rmat", make_rmat(512, 4000, rng)});
    out.push_back({"rmat-large", make_rmat(8192, 70000, rng)});
    out.push_back(
        {"ba-multigraph-large",
         multigraphed(make_barabasi_albert(9000, 4, rng))});
    return out;
}

std::vector<std::uint32_t>
naive_assignment(const UndirectedCsr &adj, NodeId n, std::uint32_t P,
                 ShardStrategy strategy,
                 const std::vector<std::uint32_t> *prior)
{
    if (n == 0 || P == 1)
        return std::vector<std::uint32_t>(n, 0);
    const NaiveStreamKind kind =
        strategy == ShardStrategy::kLdg      ? NaiveStreamKind::kLdg
        : strategy == ShardStrategy::kFennel ? NaiveStreamKind::kFennel
                                             : NaiveStreamKind::kHdrf;
    return naive_stream_partition(adj, P, {}, kind, prior);
}

TEST(PartitionOracleSweep, CsrAndAssignmentsMatchFrozenReferences)
{
    constexpr std::uint32_t kShards[] = {1, 2, 3, 5, 8};
    for (const SweepGraph &g : sweep_graphs()) {
        const GraphRef ref(g.graph);
        const NodeId n = g.graph.num_nodes;
        const UndirectedCsr want_csr = naive_build_undirected_csr(ref, 1);
        for (unsigned t = 1; t <= 4; ++t) {
            const UndirectedCsr got = build_undirected_csr(ref, t);
            ASSERT_EQ(got.offsets, want_csr.offsets) << g.name << " t" << t;
            ASSERT_TRUE(got.nbr == want_csr.nbr) << g.name << " t" << t;
        }

        for (std::uint32_t P : kShards) {
            // Random prior: labels in [0, P + 3), some >= P, and the
            // unassigned marker.
            Rng rng(0xA110C + P);
            std::vector<std::uint32_t> random_prior(n);
            for (NodeId v = 0; v < n; ++v)
                random_prior[v] =
                    v % 11 == 0 ? 0xFFFFFFFFu
                                : static_cast<std::uint32_t>(
                                      rng.uniform_index(P + 3));

            for (ShardStrategy strategy : kStreaming) {
                const std::vector<std::uint32_t> cold = naive_assignment(
                    want_csr, n, P, strategy, nullptr);
                const std::vector<std::uint32_t> *priors[] = {
                    nullptr, &cold, &random_prior};
                for (const std::vector<std::uint32_t> *prior : priors) {
                    const std::vector<std::uint32_t> want =
                        naive_assignment(want_csr, n, P, strategy, prior);
                    for (unsigned t = 1; t <= 4; ++t)
                        ASSERT_EQ(shard_assignment(ref, P, strategy, prior,
                                                   nullptr, t),
                                  want)
                            << g.name << " P" << P << " "
                            << shard_strategy_name(strategy) << " prior "
                            << (prior == nullptr ? "none"
                                : prior == &cold ? "previous"
                                                 : "random")
                            << " t" << t;
                }

                // Restreaming as shard_plan_assignment runs it.
                ShardConfig config;
                config.num_shards = P;
                config.strategy = strategy;
                config.restream_passes = 3;
                std::vector<std::uint32_t> want = cold;
                for (std::uint32_t pass = 0; pass < 3; ++pass) {
                    std::vector<std::uint32_t> next = naive_assignment(
                        want_csr, n, P, strategy, &want);
                    if (next == want)
                        break;
                    want = std::move(next);
                }
                for (unsigned t = 1; t <= 4; ++t)
                    ASSERT_EQ(shard_plan_assignment(ref, config, t), want)
                        << g.name << " P" << P << " "
                        << shard_strategy_name(strategy) << " restream t"
                        << t;
            }

            // BFS renumbering walks the same adjacency.
            const std::vector<std::uint32_t> bfs = shard_assignment(
                ref, P, ShardStrategy::kBfsContiguous, nullptr,
                &want_csr, 1);
            for (unsigned t = 1; t <= 4; ++t)
                ASSERT_EQ(shard_assignment(ref, P,
                                           ShardStrategy::kBfsContiguous,
                                           &random_prior, nullptr, t),
                          bfs)
                    << g.name << " P" << P << " bfs t" << t;
        }
    }
}

TEST(PartitionOracleSweep, HdrfSumsEachBinInRowOrder)
{
    // HDRF's pull is a double sum, so its bits depend on the order of
    // the terms. Node 0 streams first (all loads 0, so the scores are
    // the pulls) with six neighbors whose prior labels alternate 0, 1
    // in row order. Their degrees make partition 0 sum the weights
    // for degrees (1, 4, 3) and partition 1 the same weights in
    // reverse, (3, 4, 1): equal as real numbers, one ulp apart as
    // doubles. Row order favors partition 0; a pass that summed in
    // any other order would flip node 0.
    CooGraph g;
    g.num_nodes = 17;
    for (NodeId u = 1; u <= 6; ++u)
        g.edges.push_back({0, u});
    NodeId leaf = 7;
    // Extra degree per neighbor: 3 and 5 on partition 0, 2 and 4 on 1.
    for (auto [u, extra] : {std::pair<NodeId, int>{3, 3}, {5, 2},
                            {2, 2}, {4, 3}})
        for (int k = 0; k < extra; ++k)
            g.edges.push_back({u, leaf++});
    ASSERT_EQ(leaf, g.num_nodes);
    std::vector<std::uint32_t> prior(g.num_nodes, 0);
    for (NodeId u : {2u, 4u, 6u})
        prior[u] = 1;

    const GraphRef ref(g);
    const std::vector<std::uint32_t> want = naive_stream_partition(
        naive_build_undirected_csr(ref, 1), 2, {}, NaiveStreamKind::kHdrf,
        &prior);
    ASSERT_EQ(want[0], 0u);
    for (unsigned t = 1; t <= 4; ++t)
        EXPECT_EQ(shard_assignment(ref, 2, ShardStrategy::kHdrf, &prior,
                                   nullptr, t),
                  want)
            << t;
}

} // namespace
} // namespace flowgnn
