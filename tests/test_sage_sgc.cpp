/** @file GraphSAGE / SGC extension-layer tests (paper Sec. V case 1). */
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "datasets/dataset.h"
#include "nn/sage_layer.h"
#include "nn/sgc_layer.h"
#include "tensor/ops.h"
#include "testing_util.h"

namespace flowgnn {
namespace {

using testing::message_of;
using testing::transform_of;

GraphSample
path_sample(std::size_t dim)
{
    // 0 -> 1 -> 2 with constant features.
    GraphSample s;
    s.graph.num_nodes = 3;
    s.graph.edges = {{0, 1}, {1, 2}};
    s.node_features = Matrix(3, dim, 1.0f);
    return s;
}

TEST(SageLayer, UsesMeanAggregation)
{
    Rng rng(1);
    SageLayer sage(4, 4, Activation::kIdentity, rng);
    EXPECT_EQ(sage.aggregator_kind(), AggregatorKind::kMean);
    EXPECT_EQ(sage.msg_dim(), 4u);
    EXPECT_EQ(sage.nt_pass_dims(), (std::vector<std::size_t>{4, 4}));
}

TEST(SageLayer, MessageIsRawEmbedding)
{
    Rng rng(1);
    SageLayer sage(3, 3, Activation::kRelu, rng);
    GraphSample s = path_sample(3);
    LayerContext ctx = make_layer_context(s);
    Vec x{1.5f, -2.0f, 0.25f};
    EXPECT_EQ(message_of(sage, x, nullptr, 0, 0, 1, ctx), x);
}

TEST(SageLayer, TransformSumsSelfAndNeighborPaths)
{
    Rng rng(2);
    SageLayer sage(2, 2, Activation::kIdentity, rng);
    GraphSample s = path_sample(2);
    LayerContext ctx = make_layer_context(s);
    // With zero aggregate the neighbor path contributes only its bias.
    Vec zero_agg(2, 0.0f);
    Vec x{1.0f, 2.0f};
    Vec with_zero = transform_of(sage, x, zero_agg, 0, ctx);
    Vec agg{3.0f, -1.0f};
    Vec with_agg = transform_of(sage, x, agg, 0, ctx);
    EXPECT_GT(max_abs_diff(with_zero, with_agg), 0.0f);
}

TEST(SgcLayer, PropagationOnlyNoWeights)
{
    SgcLayer sgc(4);
    EXPECT_EQ(sgc.transform_macs(), 4u);
    EXPECT_EQ(sgc.nt_pass_dims(), (std::vector<std::size_t>{4}));
}

TEST(SgcLayer, MatchesGcnNormalizationArithmetic)
{
    // Node 2 of the path graph: in-deg 1, neighbor 1 has out-deg 1.
    SgcLayer sgc(2);
    GraphSample s = path_sample(2);
    LayerContext ctx = make_layer_context(s);
    Vec msg = message_of(sgc, {1.0f, 1.0f}, nullptr, 0, 1, 2, ctx);
    float norm = 1.0f / std::sqrt(2.0f * 2.0f);
    EXPECT_FLOAT_EQ(msg[0], norm);
    // Transform adds the renormalized self loop: agg + x / (deg+1).
    Vec out = transform_of(sgc, {4.0f, 4.0f}, {1.0f, 1.0f}, 2, ctx);
    EXPECT_FLOAT_EQ(out[0], 1.0f + 4.0f / 2.0f);
}

TEST(SgcModel, IsEncoderPlusPropagationPlusHead)
{
    Model sgc = make_model(ModelKind::kSgc, 9, 0);
    EXPECT_EQ(sgc.num_stages(), 3u); // encoder + 2 hops
    EXPECT_EQ(sgc.embedding_dim(), 100u);
    EXPECT_EQ(std::string(sgc.stage(1).name()), "sgc");
}

TEST(SageModel, FactoryConfiguration)
{
    Model sage = make_model(ModelKind::kSage, 9, 0);
    EXPECT_EQ(sage.num_stages(), 6u);
    EXPECT_EQ(sage.name(), "GraphSAGE");
    EXPECT_FALSE(sage.uses_virtual_node());
}

class ExtensionCrossCheck : public ::testing::TestWithParam<ModelKind>
{
};

TEST_P(ExtensionCrossCheck, EngineMatchesReference)
{
    // The paper's claim: older GNNs run on the existing FlowGNN
    // kernels unchanged. Verify end-to-end on the dataflow engine.
    GraphSample s = make_sample(DatasetKind::kMolHiv, 13);
    Model m = make_model(GetParam(), s.node_dim(), s.edge_dim());

    EngineConfig exact_cfg;
    exact_cfg.p_node = 1;
    Engine exact(m, exact_cfg);
    Matrix expected = m.reference_embeddings(m.prepare(s));
    EXPECT_EQ(max_abs_diff(exact.run(s).embeddings, expected), 0.0f);

    Engine parallel(m, {});
    EXPECT_LT(max_abs_diff(parallel.run(s).embeddings, expected), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(SageAndSgc, ExtensionCrossCheck,
                         ::testing::Values(ModelKind::kSage,
                                           ModelKind::kSgc));

} // namespace
} // namespace flowgnn
