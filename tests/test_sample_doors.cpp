/**
 * @file
 * Where a malformed sample is stopped. A raw sample is checked by
 * Model::prepare before anything reads it, so every run path that
 * prepares — Engine::run, Model::predict, ShardedEngine::run, the
 * pool's two submits and the service — ends in std::invalid_argument
 * instead of reading past a section. An already-prepared GraphSample
 * is checked by its SampleRef conversion (section lengths) and by the
 * planner's and the functional kernel's edge scans (endpoints). An
 * empty sample is stopped by the functional kernel alone, on every
 * run path.
 */
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "core/engine.h"
#include "core/parallel.h"
#include "ghost/ghost_engine.h"
#include "graph/generators.h"
#include "pool/scheduler.h"
#include "serve/service.h"
#include "testing_util.h"

namespace flowgnn {
namespace {

using testing::make_random_sample;

constexpr std::size_t kNodeDim = 5;

GraphSample
good_sample(std::uint64_t seed)
{
    Rng rng(seed);
    return make_random_sample(make_molecule(14, rng), kNodeDim, 0, seed);
}

/** A DGN input whose last edge points one past the last node: the
 * Fiedler vector prepare computes would index past its arrays. */
GraphSample
bad_endpoint_sample()
{
    GraphSample s = good_sample(0xD0);
    s.graph.edges.push_back({2, s.graph.num_nodes});
    return s;
}

/** A GIN+VN input with one node-feature row fewer than nodes: the
 * virtual-node copy would read past the matrix. */
GraphSample
short_features_sample()
{
    GraphSample s = good_sample(0xD1);
    s.node_features = Matrix(s.num_nodes() - 1, kNodeDim, 0.5f);
    return s;
}

struct BadCase {
    const char *name;
    ModelKind kind;
    GraphSample sample;
};

std::vector<BadCase>
bad_cases()
{
    return {{"DGN, endpoint >= num_nodes", ModelKind::kDgn,
             bad_endpoint_sample()},
            {"GIN+VN, short node features", ModelKind::kGinVn,
             short_features_sample()}};
}

TEST(SampleDoors, EngineRunAndPredictThrow)
{
    for (const BadCase &c : bad_cases()) {
        SCOPED_TRACE(c.name);
        const Model model = make_model(c.kind, kNodeDim, 0);
        EXPECT_FALSE(c.sample.consistent());
        EXPECT_THROW(model.prepare(c.sample), std::invalid_argument);
        EXPECT_THROW(Engine(model).run(c.sample), std::invalid_argument);
        EXPECT_THROW(model.predict(c.sample), std::invalid_argument);
    }
}

TEST(SampleDoors, ShardedEngineRunThrows)
{
    ShardConfig shard;
    shard.num_shards = 2;
    for (const BadCase &c : bad_cases()) {
        SCOPED_TRACE(c.name);
        const Model model = make_model(c.kind, kNodeDim, 0);
        EXPECT_THROW(ShardedEngine(model, {}, shard).run(c.sample),
                     std::invalid_argument);
    }
}

TEST(SampleDoors, AnEmptySampleThrowsFromEveryRunPath)
{
    // GCN adds no virtual node, so the sample reaches the functional
    // kernel with no nodes, and its one check stops every path.
    const Model model = make_model(ModelKind::kGcn, kNodeDim, 0);
    GraphSample empty;
    empty.node_features = Matrix(0, kNodeDim);
    EXPECT_THROW(Engine(model).run(empty), std::invalid_argument);
    RunWorkspace ws;
    EXPECT_THROW(Engine(model).run_prepared(empty, {}, ws),
                 std::invalid_argument);
    ShardConfig one;
    one.num_shards = 1;
    const GhostPlan plan = make_ghost_plan(model, empty, one);
    ASSERT_FALSE(plan.sharded);
    EXPECT_THROW(run_ghost_plan(model, {}, empty, plan, {}, one.link),
                 std::invalid_argument);
    ShardConfig two;
    two.num_shards = 2;
    EXPECT_THROW(ShardedEngine(model, {}, two).run(empty),
                 std::invalid_argument);
}

TEST(SampleDoors, PoolFutureThrowsThenThePoolServesAGoodJob)
{
    for (const BadCase &c : bad_cases()) {
        SCOPED_TRACE(c.name);
        const Model model = make_model(c.kind, kNodeDim, 0);
        PoolConfig config;
        config.num_dies = 1; // the good job runs on the die that failed
        PoolScheduler pool(model, {}, config);
        std::future<RunResult> bad = pool.submit(c.sample);
        EXPECT_THROW(bad.get(), std::invalid_argument);

        const GraphSample good = good_sample(0xD2);
        const RunResult served = pool.submit(good).get();
        const RunResult direct = Engine(model).run(good);
        EXPECT_TRUE(served.embeddings == direct.embeddings);
        EXPECT_EQ(served.stats.total_cycles, direct.stats.total_cycles);
        pool.drain();
        const PoolStats st = pool.stats();
        EXPECT_EQ(st.fast.failed, 1u);
        EXPECT_EQ(st.fast.completed, 1u);
    }
}

TEST(SampleDoors, SubmitShardedThrowsAtSubmit)
{
    ShardConfig shard;
    shard.num_shards = 2;
    for (const BadCase &c : bad_cases()) {
        SCOPED_TRACE(c.name);
        const Model model = make_model(c.kind, kNodeDim, 0);
        PoolConfig config;
        config.num_dies = 2;
        PoolScheduler pool(model, {}, config);
        EXPECT_THROW(pool.submit_sharded(c.sample, shard),
                     std::invalid_argument);
        EXPECT_EQ(pool.stats().sharded.submitted, 0u);
    }
}

TEST(SampleDoors, ServiceFutureThrows)
{
    for (const BadCase &c : bad_cases()) {
        SCOPED_TRACE(c.name);
        const Model model = make_model(c.kind, kNodeDim, 0);
        InferenceService service(model);
        std::future<RunResult> bad = service.submit(c.sample);
        EXPECT_THROW(bad.get(), std::invalid_argument);
    }
}

TEST(SampleDoors, SampleRefChecksEverySectionLength)
{
    const GraphSample good = good_sample(0xD3);
    ASSERT_TRUE(good.consistent());
    EXPECT_NO_THROW(SampleRef{good});
    const NodeId n = good.num_nodes();

    std::vector<std::pair<const char *, GraphSample>> bad;
    bad.push_back({"node feature rows", good});
    bad.back().second.node_features = Matrix(n + 1, kNodeDim);
    bad.push_back({"edge feature rows", good});
    bad.back().second.edge_features = Matrix(good.num_edges() - 1, 2);
    bad.push_back({"dgn_field", good});
    bad.back().second.dgn_field = Vec(n - 1, 0.0f);
    bad.push_back({"true_in_deg", good});
    bad.back().second.true_in_deg.assign(n + 2, 1);
    bad.push_back({"true_out_deg", good});
    bad.back().second.true_out_deg.assign(1, 1);
    bad.push_back({"num_pool_nodes", good});
    bad.back().second.num_pool_nodes = n + 1;
    for (const auto &[name, sample] : bad) {
        SCOPED_TRACE(name);
        EXPECT_FALSE(sample.consistent());
        EXPECT_THROW(SampleRef{sample}, std::invalid_argument);
    }

    // Every GraphSample entry that skips prepare converts at its door.
    const Model model = make_model(ModelKind::kGcn, kNodeDim, 0);
    const GraphSample &short_rows = bad.front().second;
    ShardConfig shard;
    shard.num_shards = 2;
    RunWorkspace ws;
    EXPECT_THROW(model.reference_embeddings(short_rows),
                 std::invalid_argument);
    EXPECT_THROW(Engine(model).run_prepared(short_rows, {}, ws),
                 std::invalid_argument);
    EXPECT_THROW(make_ghost_plan(model, short_rows, shard),
                 std::invalid_argument);
    const GhostPlan plan = make_ghost_plan(model, good, shard);
    EXPECT_THROW(run_ghost_plan(model, {}, short_rows, plan, {}, shard.link),
                 std::invalid_argument);
}

TEST(SampleDoors, EdgeFeaturesOfAnotherWidthThrow)
{
    // GIN, PNA and DGN built for 3-wide edge features. A sample whose
    // edge features are 2 or 4 wide would run without them; it throws
    // at the functional kernel, the one check every path (an in-memory
    // sample, a prepared one, a mapped file's view) passes through.
    Rng rng(0xD7);
    const GraphSample narrow =
        make_random_sample(make_molecule(14, rng), kNodeDim, 2, 0xD7);
    const GraphSample wide =
        make_random_sample(narrow.graph, kNodeDim, 4, 0xD8);
    const GraphSample exact =
        make_random_sample(narrow.graph, kNodeDim, 3, 0xD9);
    GraphSample featureless = exact;
    featureless.edge_features = Matrix();
    ShardConfig shard;
    shard.num_shards = 2;
    for (ModelKind kind : {ModelKind::kGin, ModelKind::kPna,
                           ModelKind::kDgn}) {
        SCOPED_TRACE(model_name(kind));
        const Model model = make_model(kind, kNodeDim, 3);
        for (const GraphSample *bad : {&narrow, &wide}) {
            EXPECT_THROW(Engine(model).run(*bad), std::invalid_argument);
            EXPECT_THROW(ShardedEngine(model, {}, shard).run(*bad),
                         std::invalid_argument);
            const GraphSample prepared = model.prepare(*bad);
            EXPECT_THROW(model.reference_embeddings(prepared),
                         std::invalid_argument);
        }
        EXPECT_NO_THROW(Engine(model).run(exact));
        EXPECT_NO_THROW(Engine(model).run(featureless));
    }
    // A model that reads no edge features takes any width.
    const Model gat = make_model(ModelKind::kGat, kNodeDim, 0);
    EXPECT_NO_THROW(Engine(gat).run(narrow));
}

TEST(SampleDoors, NonFiniteFeaturesThrowNamingTheRow)
{
    // A NaN or infinity would run through every stage into its
    // neighbors' outputs. The functional kernel rejects it, naming the
    // row, for an in-memory sample, a prepared one and a sharded run
    // alike (test_graph_view covers a mapped file's view).
    const float bad_values[] = {std::numeric_limits<float>::quiet_NaN(),
                                std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity()};
    Rng rng(0xDA);
    const GraphSample good =
        make_random_sample(make_molecule(14, rng), kNodeDim, 3, 0xDA);
    ShardConfig shard;
    shard.num_shards = 2;
    const Model gin = make_model(ModelKind::kGin, kNodeDim, 3);
    const Model gcn = make_model(ModelKind::kGcn, kNodeDim, 0);
    auto expect_row = [](auto &&run, const std::string &row) {
        try {
            run();
            ADD_FAILURE() << "no throw, want " << row;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(row), std::string::npos)
                << e.what();
        }
    };
    for (float bad : bad_values) {
        SCOPED_TRACE(bad);
        GraphSample node = good;
        node.node_features(9, 2) = bad;
        for (const Model *model : {&gin, &gcn}) {
            expect_row([&] { Engine(*model).run(node); },
                       "node-feature row 9 ");
            expect_row([&] { ShardedEngine(*model, {}, shard).run(node); },
                       "node-feature row 9 ");
            const GraphSample prepared = model->prepare(node);
            expect_row([&] { model->reference_embeddings(prepared); },
                       "node-feature row 9 ");
        }

        GraphSample edge = good;
        edge.edge_features(5, 1) = bad;
        expect_row([&] { Engine(gin).run(edge); }, "edge-feature row 5 ");
        // A model that reads no edge features never sees them.
        EXPECT_NO_THROW(Engine(gcn).run(edge));
    }
    EXPECT_NO_THROW(Engine(gin).run(good));
}

constexpr ShardStrategy kAllStrategies[] = {
    ShardStrategy::kModulo,        ShardStrategy::kContiguous,
    ShardStrategy::kGreedyBalanced, ShardStrategy::kBfsContiguous,
    ShardStrategy::kLdg,           ShardStrategy::kFennel,
    ShardStrategy::kHdrf,
};

TEST(SampleDoors, EveryStrategyRejectsAnOutOfRangeEndpointWhilePlanning)
{
    // An in-memory view that skipped every door: lengths are right, one
    // endpoint is not. Either end of the edge, early or late in the
    // stream, and a stream long enough that the plan's edge scan splits
    // across workers.
    const Model model = make_model(ModelKind::kGcn, kNodeDim, 0);
    Rng rng(0xD4);
    const GraphSample small = good_sample(0xD5);
    const GraphSample large = make_random_sample(
        make_erdos_renyi(3000, 70000, rng), kNodeDim, 0, 0xD6);
    ASSERT_GT(large.num_edges(), kSerialCutoff);
    for (const GraphSample *base : {&small, &large}) {
        for (bool at_src : {false, true}) {
            for (std::size_t at : {std::size_t(0), base->num_edges() - 1}) {
                GraphSample s = *base;
                Edge &e = s.graph.edges[at];
                (at_src ? e.src : e.dst) = s.num_nodes() + 7;
                for (ShardStrategy strategy : kAllStrategies) {
                    for (std::uint32_t p : {2u, 3u}) {
                        SCOPED_TRACE(::testing::Message()
                                     << shard_strategy_name(strategy)
                                     << " P=" << p << " edges="
                                     << s.num_edges() << " at " << at
                                     << (at_src ? " src" : " dst"));
                        ShardConfig cfg;
                        cfg.num_shards = p;
                        cfg.strategy = strategy;
                        EXPECT_THROW(
                            make_ghost_plan(model, SampleRef(s), cfg, 3),
                            std::invalid_argument);
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace flowgnn
