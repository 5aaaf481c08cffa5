/**
 * @file
 * The functional kernel (core/functional.h) against the independent
 * per-edge oracle testing::naive_reference_embeddings: bit-identity for
 * every model kind, with and without edge features and fixed point, at
 * every thread count, on graphs whose COO stream is not src-sorted;
 * checkpoint/resume at every layer boundary; the src-major
 * in-adjacency the gathers walk; and the zero-node guard on every
 * front door.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "core/engine.h"
#include "ghost/ghost_engine.h"
#include "nn/gcn_layer.h"
#include "nn/sage_layer.h"
#include "testing_util.h"

namespace flowgnn {
namespace {

using testing::make_random_sample;
using testing::naive_reference_embeddings;

constexpr ModelKind kAllKinds[] = {
    ModelKind::kGcn,   ModelKind::kGin,  ModelKind::kGinVn,
    ModelKind::kGat,   ModelKind::kPna,  ModelKind::kDgn,
    ModelKind::kGcn16, ModelKind::kSage, ModelKind::kSgc,
};
constexpr unsigned kThreadCounts[] = {1, 2, 3, 8};
constexpr std::size_t kNodeDim = 6;

/**
 * A hostile stream: a Barabási–Albert graph relabeled at random (its
 * COO is no longer src-sorted) plus parallel edges, self-loops and
 * isolated nodes.
 */
CooGraph
hostile_graph(NodeId nodes, std::uint32_t m, std::uint64_t seed)
{
    Rng rng(seed);
    CooGraph g = permute_node_ids(make_barabasi_albert(nodes, m, rng), rng);
    const std::size_t base = g.edges.size();
    for (std::size_t i = 0; i < base; i += 37)
        g.edges.push_back(g.edges[i]); // parallel edge
    for (NodeId v = 0; v < g.num_nodes; v += 29)
        g.edges.push_back({v, v}); // self-loop
    g.num_nodes += 7;              // isolated nodes
    return g;
}

/** Sized past the kernel's serial cutoff so its workers engage. */
GraphSample
hostile_sample(std::size_t edge_dim, std::uint64_t seed)
{
    // ~4.4k edges: just past the kernel's 4096-edge serial cutoff.
    return make_random_sample(hostile_graph(360, 6, seed), kNodeDim,
                              edge_dim, seed + 1);
}

/** True if some destination's in-edges arrive out of src order, so a
 * stream-order gather would sum differently from the src-major one. */
bool
stream_order_is_not_src_major(const CooGraph &g)
{
    const CscGraph stream(g);
    for (NodeId v = 0; v < stream.num_nodes(); ++v)
        for (std::size_t i = stream.col_begin(v) + 1; i < stream.col_end(v);
             ++i)
            if (stream.src(i) < stream.src(i - 1))
                return true;
    return false;
}

TEST(FunctionalKernel, BitIdenticalToOracleForEveryKindAndThreadCount)
{
    std::uint64_t seed = 0xF00D0000ull;
    for (ModelKind kind : kAllKinds) {
        for (std::size_t edge_dim : {std::size_t(0), std::size_t(3)}) {
            const GraphSample sample = hostile_sample(edge_dim, ++seed);
            ASSERT_TRUE(stream_order_is_not_src_major(sample.graph));
            ASSERT_GE(sample.num_edges(), 4096u) << "workers must engage";
            const Model model = make_model(kind, kNodeDim, edge_dim, seed);
            const GraphSample prepared = model.prepare(sample);
            for (bool fixed : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << model_name(kind) << " edge_dim=" << edge_dim
                             << " fixed=" << fixed);
                RunOptions opts;
                opts.emulate_fixed_point = fixed;
                const Matrix want =
                    naive_reference_embeddings(model, prepared, opts);
                for (unsigned threads : kThreadCounts) {
                    LayerCheckpoint ckpt;
                    Matrix got;
                    ASSERT_EQ(functional_forward(model, SampleRef(prepared),
                                                 opts, threads, ckpt,
                                                 std::size_t(-1), got),
                              SegmentOutcome::kComplete);
                    EXPECT_TRUE(got == want) << "threads=" << threads;
                }
            }
        }
    }
}

TEST(FunctionalKernel, ResumeFromEveryBoundaryAtThreeThreads)
{
    std::uint64_t seed = 0xF00E0000ull;
    for (ModelKind kind : kAllKinds) {
        const GraphSample sample = hostile_sample(3, ++seed);
        const Model model = make_model(kind, kNodeDim, 3, seed);
        const GraphSample prepared = model.prepare(sample);
        const SampleRef ref(prepared);
        const RunOptions opts;
        LayerCheckpoint fresh;
        Matrix whole;
        functional_forward(model, ref, opts, 3, fresh, std::size_t(-1),
                           whole);

        for (std::size_t k = 1; k < model.num_stages(); ++k) {
            SCOPED_TRACE(::testing::Message()
                         << model_name(kind) << " boundary " << k);
            LayerCheckpoint ckpt;
            Matrix got;
            ASSERT_EQ(functional_forward(model, ref, opts, 3, ckpt, k, got),
                      SegmentOutcome::kPreempted);
            EXPECT_EQ(ckpt.next_stage, k);
            EXPECT_GT(ckpt.checkpoint_words(), 0u);
            // Resume with fresh scratch: the checkpoint alone carries
            // the value state.
            FunctionalScratch other;
            ASSERT_EQ(functional_forward(model, ref, opts, 3, ckpt,
                                         std::size_t(-1), got, &other),
                      SegmentOutcome::kComplete);
            EXPECT_TRUE(got == whole);
            EXPECT_EQ(ckpt.next_stage, 0u) << "completion resets it";
        }
    }
}

TEST(FunctionalKernel, StagesWithoutAFusedScatterGatherTheirOwnMessages)
{
    // A conv first (no encoder scatters for it) and a conv right after
    // attention (whose phase gathers for itself): the kernel gathers
    // such a stage's messages in its own prologue, as the oracle does.
    Rng rng(0xF010);
    std::vector<std::unique_ptr<Layer>> stages;
    stages.push_back(
        std::make_unique<GcnLayer>(kNodeDim, 8, Activation::kRelu, rng));
    stages.push_back(
        std::make_unique<GatLayer>(8, 2, 4, Activation::kElu, rng));
    stages.push_back(
        std::make_unique<SageLayer>(8, 8, Activation::kIdentity, rng));
    Mlp head({8, 1});
    head.init_glorot(rng);
    const Model model("conv-gat-sage", std::move(stages), std::move(head));
    const GraphSample sample = hostile_sample(0, 0xF011);
    const Matrix want = naive_reference_embeddings(model, sample);
    for (unsigned threads : kThreadCounts) {
        LayerCheckpoint ckpt;
        Matrix got;
        functional_forward(model, SampleRef(sample), RunOptions{}, threads,
                           ckpt, std::size_t(-1), got);
        EXPECT_TRUE(got == want) << "threads=" << threads;
    }
}

TEST(FunctionalKernel, SrcMajorColumnsFollowTheScatterOrder)
{
    // Big enough (> 64k edges) that the column sort runs threaded.
    const CooGraph g = hostile_graph(3000, 12, 0xF00F);
    ASSERT_TRUE(stream_order_is_not_src_major(g));
    // The reference scatter order: sources ascending, each CSR row in
    // edge-id order.
    const CsrGraph csr(g);
    std::vector<std::vector<std::pair<NodeId, EdgeId>>> want(g.num_nodes);
    for (NodeId src = 0; src < g.num_nodes; ++src)
        for (std::size_t i = csr.row_begin(src); i < csr.row_end(src); ++i)
            want[csr.dst(i)].push_back({src, csr.edge_id(i)});

    for (unsigned threads : kThreadCounts) {
        for (bool ids : {true, false}) {
            SCOPED_TRACE(::testing::Message()
                         << "threads=" << threads << " ids=" << ids);
            const CscGraph csc(GraphRef(g), threads, CscOrder::kSrcMajor,
                               ids);
            ASSERT_EQ(csc.has_edge_ids(), ids);
            for (NodeId v = 0; v < g.num_nodes; ++v) {
                ASSERT_EQ(csc.in_degree(v), want[v].size());
                for (std::size_t k = 0; k < want[v].size(); ++k) {
                    const std::size_t s = csc.col_begin(v) + k;
                    ASSERT_EQ(csc.src(s), want[v][k].first);
                    if (ids)
                        ASSERT_EQ(csc.edge_id(s), want[v][k].second);
                }
            }
            const std::vector<NodeId> b = csc.balanced_cols(threads);
            ASSERT_EQ(b.size(), threads + 1);
            EXPECT_EQ(b.front(), 0u);
            EXPECT_EQ(b.back(), g.num_nodes);
            EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
        }
    }
}

TEST(FunctionalKernel, ZeroNodeSampleIsRejectedAtEveryFrontDoor)
{
    // An empty sample passes the structural check; every entry point
    // must reject it instead of indexing node n - 1.
    const Model model = make_model(ModelKind::kGcn16, 4, 0);
    GraphSample empty;
    empty.node_features = Matrix(0, 4);
    ASSERT_TRUE(empty.consistent());

    for (PipelineMode mode :
         {PipelineMode::kNonPipelined, PipelineMode::kFixedPipeline,
          PipelineMode::kBaselineDataflow, PipelineMode::kFlowGnn}) {
        EngineConfig cfg;
        cfg.mode = mode;
        RunWorkspace ws;
        EXPECT_THROW(
            Engine(model, cfg).run_prepared(empty, RunOptions{}, ws),
            std::invalid_argument)
            << pipeline_mode_name(mode);
    }
    LayerCheckpoint ckpt;
    Matrix out;
    EXPECT_THROW(functional_forward(model, SampleRef(empty), RunOptions{},
                                    1, ckpt, std::size_t(-1), out),
                 std::invalid_argument);
    EXPECT_THROW(model.reference_embeddings(empty), std::invalid_argument);

    ShardConfig shard;
    shard.num_shards = 2;
    shard.mode = ShardMode::kGhostExchange;
    EXPECT_THROW(run_ghost_plan(model, EngineConfig{}, empty,
                                make_ghost_plan(model, empty, shard),
                                RunOptions{}, shard.link),
                 std::invalid_argument);
}

} // namespace
} // namespace flowgnn
