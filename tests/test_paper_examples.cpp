/**
 * @file
 * Tests that reproduce worked examples from the paper text itself:
 * the Fig. 5 multicast scenario and hand-computed layer arithmetic on
 * minimal graphs.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "nn/gcn_layer.h"
#include "nn/gin_layer.h"
#include "nn/model.h"
#include "tensor/ops.h"
#include "testing_util.h"

namespace flowgnn {
namespace {

using testing::message_of;
using testing::transform_of;

/**
 * Paper Fig. 5: edge list {(n0,n1), (n1,n2), (n1,n3), (n2,n1)}, two NT
 * units and two MP units. MP unit 0 owns even destinations, unit 1 odd
 * ones (dst % 2). Expected per-bank edge ownership: bank 0 gets
 * (n1,n2) — dst 2; bank 1 gets (n0,n1), (n1,n3), (n2,n1) — dsts 1,3,1.
 */
TEST(PaperFig5, MulticastRoutesEdgesByDestinationBank)
{
    GraphSample s;
    s.graph.num_nodes = 4;
    s.graph.edges = {{0, 1}, {1, 2}, {1, 3}, {2, 1}};
    s.node_features = Matrix(4, 4, 0.5f);

    Model m = make_model(ModelKind::kGcn, 4, 0);
    EngineConfig cfg;
    cfg.p_node = 2;
    cfg.p_edge = 2;
    cfg.p_apply = 2;
    cfg.p_scatter = 2;
    RunResult r = Engine(m, cfg).run(s);

    // 5 scatter phases (GCN has 5 conv layers), dim 100 at Pscatter=2
    // -> 50 granules per edge per phase.
    std::uint64_t granules = 50;
    EXPECT_EQ(r.stats.mp_edge_work[0], 1 * granules * 5); // (n1,n2)
    EXPECT_EQ(r.stats.mp_edge_work[1], 3 * granules * 5); // the rest
}

TEST(PaperFig5, NodeWithoutNeighborsInBankIsNotMulticast)
{
    // n0's only neighbor is n1 (bank 1): queue pushes to bank 0 from
    // n0 would be wasted. Verify total pushes equal only the needed
    // (node, bank) pairs: n0->{1}, n1->{0,1}, n2->{1}, n3->{} per
    // phase: 4 ports x 50 granules... counted as entries.
    GraphSample s;
    s.graph.num_nodes = 4;
    s.graph.edges = {{0, 1}, {1, 2}, {1, 3}, {2, 1}};
    s.node_features = Matrix(4, 4, 0.5f);

    Model m = make_model(ModelKind::kGcn, 4, 0);
    EngineConfig cfg;
    cfg.p_node = 2;
    cfg.p_edge = 2;
    cfg.p_apply = 2;
    cfg.p_scatter = 2;
    RunResult r = Engine(m, cfg).run(s);
    // Per scatter phase: n0 multicasts 50 granules to 1 bank, n1 to 2
    // banks (100), n2 to 1 bank (50), n3 to none = 200 pushes; 5
    // phases -> 1000.
    EXPECT_EQ(r.stats.queue_total_pushes, 1000u);
}

/** Two-node GCN layer, every weight hand-set: checks Eq. arithmetic
 * end to end through the reference executor. */
TEST(PaperMath, GcnTwoNodeHandComputation)
{
    // Graph: 0 -> 1 and 1 -> 0 (symmetric pair).
    GraphSample s;
    s.graph.num_nodes = 2;
    s.graph.edges = {{0, 1}, {1, 0}};
    s.node_features = Matrix(2, 2);
    s.node_features.set_row(0, {1.0f, 0.0f});
    s.node_features.set_row(1, {0.0f, 2.0f});

    Rng rng(1);
    GcnLayer gcn(2, 2, Activation::kIdentity, rng);
    Matrix &w = const_cast<Linear &>(gcn.linear()).weight();
    w.fill(0.0f);
    w(0, 0) = 1.0f; // identity weights
    w(1, 1) = 1.0f;
    const_cast<Linear &>(gcn.linear()).bias_ref() = {0.0f, 0.0f};

    LayerContext ctx = make_layer_context(s);
    // Node 0: deg_hat = 2 both sides -> message from 1 = x1/2,
    // self = x0/2; out = [0.5, 1.0].
    Vec msg = message_of(gcn, s.node_features.row_vec(1), nullptr, 0, 1,
                         0, ctx);
    Vec out = transform_of(gcn, s.node_features.row_vec(0), msg, 0, ctx);
    EXPECT_FLOAT_EQ(out[0], 0.5f);
    EXPECT_FLOAT_EQ(out[1], 1.0f);
}

/** GIN Eq. (1) hand computation with identity-ish MLP. */
TEST(PaperMath, GinEquationOneHandComputation)
{
    GraphSample s;
    s.graph.num_nodes = 2;
    s.graph.edges = {{1, 0}};
    s.node_features = Matrix(2, 2);
    s.node_features.set_row(0, {1.0f, -1.0f});
    s.node_features.set_row(1, {3.0f, -2.0f});

    Rng rng(2);
    GinLayer gin(2, 0, Activation::kIdentity, rng);
    // Make the MLP the identity: layer0 = [I; 0] (2->4), layer1 picks
    // the first two rows back out (4->2).
    Mlp &mlp = const_cast<Mlp &>(gin.mlp());
    mlp.layer(0).weight().fill(0.0f);
    mlp.layer(0).weight()(0, 0) = 1.0f;
    mlp.layer(0).weight()(1, 1) = 1.0f;
    mlp.layer(0).bias_ref() = Vec(4, 0.0f);
    mlp.layer(1).weight().fill(0.0f);
    mlp.layer(1).weight()(0, 0) = 1.0f;
    mlp.layer(1).weight()(1, 1) = 1.0f;
    mlp.layer(1).bias_ref() = Vec(2, 0.0f);

    LayerContext ctx = make_layer_context(s);
    // Message from node 1: ReLU(x1) = [3, 0].
    Vec msg = message_of(gin, s.node_features.row_vec(1), nullptr, 0, 1,
                         0, ctx);
    EXPECT_EQ(msg, (Vec{3.0f, 0.0f}));
    // x0' = MLP((1+eps)*x0 + msg), eps = 0.1, hidden ReLU clips.
    Vec out = transform_of(gin, s.node_features.row_vec(0), msg, 0, ctx);
    EXPECT_FLOAT_EQ(out[0], 1.1f + 3.0f);
    // Second component: (1.1 * -1 + 0) = -1.1, ReLU in hidden -> 0.
    EXPECT_FLOAT_EQ(out[1], 0.0f);
}

/** The Fig. 2 style invariant: with a permutation-invariant
 * aggregator, relabeling nodes permutes the embeddings accordingly. */
TEST(PaperMath, NodeRelabelingPermutesEmbeddings)
{
    GraphSample s;
    s.graph.num_nodes = 3;
    s.graph.edges = {{0, 1}, {1, 2}, {2, 0}};
    s.node_features = Matrix(3, 4);
    for (NodeId n = 0; n < 3; ++n)
        for (std::size_t c = 0; c < 4; ++c)
            s.node_features(n, c) = 0.1f * static_cast<float>(n + c);

    // Relabel: sigma = (0->2, 1->0, 2->1).
    const NodeId sigma[3] = {2, 0, 1};
    GraphSample p;
    p.graph.num_nodes = 3;
    for (const auto &e : s.graph.edges)
        p.graph.edges.push_back({sigma[e.src], sigma[e.dst]});
    p.node_features = Matrix(3, 4);
    for (NodeId n = 0; n < 3; ++n)
        for (std::size_t c = 0; c < 4; ++c)
            p.node_features(sigma[n], c) = s.node_features(n, c);

    Model m = make_model(ModelKind::kGin, 4, 0);
    Matrix emb_s = m.reference_embeddings(m.prepare(s));
    Matrix emb_p = m.reference_embeddings(m.prepare(p));
    for (NodeId n = 0; n < 3; ++n)
        for (std::size_t c = 0; c < m.embedding_dim(); ++c)
            EXPECT_NEAR(emb_s(n, c), emb_p(sigma[n], c), 1e-5f);
    // Graph-level prediction is permutation-invariant.
    EXPECT_NEAR(m.predict(s), m.predict(p),
                1e-4f * (1.0f + std::abs(m.predict(s))));
}

} // namespace
} // namespace flowgnn
