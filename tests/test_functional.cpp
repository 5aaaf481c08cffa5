/**
 * @file
 * The functional kernel (core/functional.h) against the independent
 * per-edge oracle testing::naive_reference_embeddings: bit-identity for
 * every model kind, with and without edge features and fixed point, at
 * every thread count, on graphs whose COO stream is not src-sorted;
 * checkpoint/resume at every layer boundary; the src-major
 * in-adjacency the gathers walk; the zero-node guard on every front
 * door; and Model::prepare keeping every consistent sample consistent.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "core/engine.h"
#include "datasets/dataset.h"
#include "ghost/ghost_engine.h"
#include "io/graph_file.h"
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

/** One pinned embedding digest: FNV-1a of the final embeddings'
 * bytes for a model kind on a dataset's sample 0. */
struct EmbeddingDigest {
    ModelKind kind;
    DatasetKind dataset;
    bool fixed;
    std::uint64_t fnv;
};

// Generated before the node-tile transforms landed and never
// regenerated since: a kernel change that moves any embedding bit
// fails here even when the kernel and the oracle drift together.
constexpr EmbeddingDigest kPinnedDigests[] = {
    {ModelKind::kGcn, DatasetKind::kMolHiv, false, 0x8a651540854c4534ull},
    {ModelKind::kGcn, DatasetKind::kMolHiv, true, 0x12013035d8fc0ae8ull},
    {ModelKind::kGcn, DatasetKind::kHep, false, 0x73488f68a2aa84ebull},
    {ModelKind::kGcn, DatasetKind::kHep, true, 0x5fb4a9603f7bf712ull},
    {ModelKind::kGcn, DatasetKind::kCora, false, 0xb197a9219dabdfcbull},
    {ModelKind::kGcn, DatasetKind::kCora, true, 0x70d60b51ff18f6a5ull},
    {ModelKind::kGin, DatasetKind::kMolHiv, false, 0x7a9686eaefc168e8ull},
    {ModelKind::kGin, DatasetKind::kMolHiv, true, 0xc7ceb971dcf8d234ull},
    {ModelKind::kGin, DatasetKind::kHep, false, 0x2dc65c7a1702e756ull},
    {ModelKind::kGin, DatasetKind::kHep, true, 0xc7fd91fcc468e10full},
    {ModelKind::kGin, DatasetKind::kCora, false, 0x32566b84696ebc99ull},
    {ModelKind::kGin, DatasetKind::kCora, true, 0x5f4988970d76ba46ull},
    {ModelKind::kGinVn, DatasetKind::kMolHiv, false, 0x9b8bdbc9cd6e8335ull},
    {ModelKind::kGinVn, DatasetKind::kMolHiv, true, 0x29b34a089f41ce8aull},
    {ModelKind::kGinVn, DatasetKind::kHep, false, 0x475f193743bfffb0ull},
    {ModelKind::kGinVn, DatasetKind::kHep, true, 0x88f38ea727a04d59ull},
    {ModelKind::kGinVn, DatasetKind::kCora, false, 0xd09694a02d655cf7ull},
    {ModelKind::kGinVn, DatasetKind::kCora, true, 0x2d7ce8fce355f61ull},
    {ModelKind::kGat, DatasetKind::kMolHiv, false, 0x909076ced8099f16ull},
    {ModelKind::kGat, DatasetKind::kMolHiv, true, 0x3eff566dc669101dull},
    {ModelKind::kGat, DatasetKind::kHep, false, 0xe0290079eafa16ddull},
    {ModelKind::kGat, DatasetKind::kHep, true, 0xd9c9d70699a4ab8aull},
    {ModelKind::kGat, DatasetKind::kCora, false, 0xc071f8b36ca0145full},
    {ModelKind::kGat, DatasetKind::kCora, true, 0xc987fea2888a5031ull},
    {ModelKind::kPna, DatasetKind::kMolHiv, false, 0x54cb377813ce3e89ull},
    {ModelKind::kPna, DatasetKind::kMolHiv, true, 0x542728c94d1d2436ull},
    {ModelKind::kPna, DatasetKind::kHep, false, 0xd71254faf84b2eccull},
    {ModelKind::kPna, DatasetKind::kHep, true, 0x56cdac02e7eefb0ull},
    {ModelKind::kPna, DatasetKind::kCora, false, 0xcb7f026a8b75b3cdull},
    {ModelKind::kPna, DatasetKind::kCora, true, 0xd23b2eac077f4d40ull},
    {ModelKind::kDgn, DatasetKind::kMolHiv, false, 0xd534df457306a412ull},
    {ModelKind::kDgn, DatasetKind::kMolHiv, true, 0x693f240a4e296105ull},
    {ModelKind::kDgn, DatasetKind::kHep, false, 0xcc9718d78ac6ea4ull},
    {ModelKind::kDgn, DatasetKind::kHep, true, 0x65d9d8f7bcc1da65ull},
    {ModelKind::kDgn, DatasetKind::kCora, false, 0x394bb08bd01b7174ull},
    {ModelKind::kDgn, DatasetKind::kCora, true, 0x86b2ce380de4516bull},
    {ModelKind::kGcn16, DatasetKind::kMolHiv, false, 0x89898667054cdc48ull},
    {ModelKind::kGcn16, DatasetKind::kMolHiv, true, 0x52737754227127f9ull},
    {ModelKind::kGcn16, DatasetKind::kHep, false, 0x60472a039a21506dull},
    {ModelKind::kGcn16, DatasetKind::kHep, true, 0xa3ffe5a11f151dc1ull},
    {ModelKind::kGcn16, DatasetKind::kCora, false, 0x91d97db49c35ac17ull},
    {ModelKind::kGcn16, DatasetKind::kCora, true, 0x842d0d288f81fcceull},
    {ModelKind::kSage, DatasetKind::kMolHiv, false, 0x9275a47f649411b3ull},
    {ModelKind::kSage, DatasetKind::kMolHiv, true, 0x6d34ea0a40db1a2ull},
    {ModelKind::kSage, DatasetKind::kHep, false, 0xd3ef0fd0509d6252ull},
    {ModelKind::kSage, DatasetKind::kHep, true, 0xe28481cdb17988b7ull},
    {ModelKind::kSage, DatasetKind::kCora, false, 0x5cb358712aa011b1ull},
    {ModelKind::kSage, DatasetKind::kCora, true, 0x6f1e743ea75577e4ull},
    {ModelKind::kSgc, DatasetKind::kMolHiv, false, 0x7ac5823eaab4db44ull},
    {ModelKind::kSgc, DatasetKind::kMolHiv, true, 0x7418e78a434c8de1ull},
    {ModelKind::kSgc, DatasetKind::kHep, false, 0x7505d47828c408e3ull},
    {ModelKind::kSgc, DatasetKind::kHep, true, 0xd6034d0619618040ull},
    {ModelKind::kSgc, DatasetKind::kCora, false, 0xa457e3f307545505ull},
    {ModelKind::kSgc, DatasetKind::kCora, true, 0xdef00a78217e4a54ull},
};

TEST(FunctionalKernel, EmbeddingDigestsArePinned)
{
    // Every build checks the digest at 1 and 3 threads against the
    // pin. The library compiles with -ffp-contract=off (a PUBLIC
    // option, so inline kernels in headers get it too): an FMA target
    // never fuses `a += b * c`, and the pins hold on every ISA.
    for (const EmbeddingDigest &pin : kPinnedDigests) {
        const GraphSample sample = make_sample(pin.dataset, 0);
        const Model model =
            make_model(pin.kind, sample.node_dim(), sample.edge_dim());
        const GraphSample prepared = model.prepare(sample);
        RunOptions opts;
        opts.emulate_fixed_point = pin.fixed;
        std::uint64_t first = 0;
        for (unsigned threads : {1u, 3u}) {
            SCOPED_TRACE(::testing::Message()
                         << model_name(pin.kind) << " on "
                         << dataset_spec(pin.dataset).name
                         << (pin.fixed ? " Q16.10" : " float")
                         << " threads=" << threads);
            LayerCheckpoint ckpt;
            Matrix got;
            functional_forward(model, SampleRef(prepared), opts, threads,
                               ckpt, std::size_t(-1), got);
            const std::uint64_t fnv =
                io::fnv1a64(got.data(), got.size() * sizeof(float));
            if (threads == 1)
                first = fnv;
            EXPECT_EQ(fnv, first) << "thread count moved a bit";
            EXPECT_EQ(fnv, pin.fnv) << std::hex << "got 0x" << fnv;
        }
    }
}

TEST(FunctionalKernel, PrepareKeepsEveryConsistentSampleConsistent)
{
    // Model::prepare is the raw-sample door: what passes it must reach
    // the kernel consistent, for every model and every optional
    // section, including edge features present in width only.
    std::uint64_t seed = 0xF0120000ull;
    for (ModelKind kind : kAllKinds) {
        for (int variant = 0; variant < 4; ++variant) {
            GraphSample sample = hostile_sample(variant == 1 ? 3 : 0, ++seed);
            if (variant == 2) {
                sample.true_in_deg = sample.graph.in_degrees();
                sample.true_out_deg = sample.graph.out_degrees();
                sample.num_pool_nodes = sample.num_nodes() - 3;
            } else if (variant == 3) {
                sample.edge_features = Matrix(0, 3);
                sample.dgn_field = Vec(sample.num_nodes(), 0.25f);
            }
            SCOPED_TRACE(::testing::Message()
                         << model_name(kind) << " variant " << variant);
            ASSERT_TRUE(sample.consistent());
            const Model model =
                make_model(kind, kNodeDim, sample.edge_dim(), seed);
            const GraphSample prepared = model.prepare(sample);
            EXPECT_TRUE(prepared.consistent());
            EXPECT_NO_THROW(SampleRef{prepared});
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
    EXPECT_THROW(run_ghost_plan(model, EngineConfig{}, empty,
                                make_ghost_plan(model, empty, shard),
                                RunOptions{}, shard.link),
                 std::invalid_argument);
}

} // namespace
} // namespace flowgnn
