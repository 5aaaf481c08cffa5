/** @file Layer-kernel unit tests (phi / gamma semantics per model). */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "graph/generators.h"
#include "nn/dgn_layer.h"
#include "nn/encoder_layer.h"
#include "nn/gat_layer.h"
#include "nn/gcn_layer.h"
#include "nn/gin_layer.h"
#include "nn/pna_layer.h"
#include "nn/sage_layer.h"
#include "nn/sgc_layer.h"
#include "tensor/ops.h"
#include "testing_util.h"
#include "../examples/new_gnn_layer.h"

namespace flowgnn {
namespace {

using testing::message_of;
using testing::transform_of;

Vec
project_of(const GatLayer &gat, const Vec &x)
{
    return transform_of(gat, x, {}, 0, LayerContext{});
}

/** gat_combine at node 0 (projection h_self) over in-neighbors
 * 1..nbrs.size() (projections nbrs), in that order. */
Vec
combine_of(const GatLayer &gat, const Vec &h_self,
           const std::vector<Vec> &nbrs)
{
    const std::size_t dim = gat.out_dim();
    const std::size_t stride = 2 * gat.num_heads();
    Vec h = h_self;
    for (const Vec &nb : nbrs)
        h.insert(h.end(), nb.begin(), nb.end());
    Vec scores((nbrs.size() + 1) * stride);
    std::vector<NodeId> srcs;
    for (std::size_t v = 0; v <= nbrs.size(); ++v) {
        gat.scores(h.data() + v * dim, scores.data() + v * stride);
        if (v > 0)
            srcs.push_back(static_cast<NodeId>(v));
    }
    Vec out(dim);
    gat_combine(gat, h.data(), scores.data(), 0, srcs.data(), srcs.size(),
                out.data());
    return out;
}

GraphSample
tiny_sample(std::size_t node_dim = 4, std::size_t edge_dim = 2)
{
    Rng rng(1);
    GraphSample s;
    s.graph.num_nodes = 4;
    s.graph.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
    s.node_features = Matrix(4, node_dim, 0.3f);
    if (edge_dim > 0)
        s.edge_features = Matrix(5, edge_dim, 0.1f);
    return s;
}

TEST(LayerContext, DegreesAndDgnNorm)
{
    GraphSample s = tiny_sample();
    s.dgn_field = {0.0f, 1.0f, 3.0f, -1.0f};
    LayerContext ctx = make_layer_context(s);
    EXPECT_EQ(ctx.out_deg, (std::vector<std::uint32_t>{2, 1, 1, 1}));
    EXPECT_EQ(ctx.in_deg, (std::vector<std::uint32_t>{1, 1, 2, 1}));
    // dgn_norm[2] = |u0 - u2| + |u1 - u2| + eps = 3 + 2 + eps.
    ASSERT_EQ(ctx.dgn_norm.size(), 4u);
    EXPECT_NEAR(ctx.dgn_norm[2], 5.0f, 1e-4f);
}

TEST(EncoderLayer, IsPureLinear)
{
    Rng rng(2);
    EncoderLayer enc(4, 8, rng);
    EXPECT_EQ(enc.msg_dim(), 0u);
    GraphSample s = tiny_sample();
    LayerContext ctx = make_layer_context(s);
    Vec x{1, 2, 3, 4};
    EXPECT_EQ(transform_of(enc, x, {}, 0, ctx), enc.linear().forward(x));
    EXPECT_EQ(enc.nt_pass_dims(), (std::vector<std::size_t>{4}));
}

TEST(GcnLayer, MessageAppliesSymmetricNorm)
{
    Rng rng(3);
    GcnLayer gcn(4, 4, Activation::kRelu, rng);
    GraphSample s = tiny_sample();
    LayerContext ctx = make_layer_context(s);
    Vec x{1, 1, 1, 1};
    // Edge 0->1: out_deg[0]=2, in_deg[1]=1 -> 1/sqrt(3*2).
    Vec m = message_of(gcn, x, nullptr, 0, 0, 1, ctx);
    float expected = 1.0f / std::sqrt(6.0f);
    for (float v : m)
        EXPECT_NEAR(v, expected, 1e-6f);
}

TEST(GcnLayer, TransformAddsScaledSelfLoop)
{
    Rng rng(3);
    GcnLayer gcn(2, 2, Activation::kIdentity, rng);
    // Identity weights isolate the combine arithmetic.
    GraphSample s = tiny_sample(2, 0);
    LayerContext ctx = make_layer_context(s);
    Matrix &w = const_cast<Linear &>(gcn.linear()).weight();
    w.fill(0.0f);
    w(0, 0) = 1.0f;
    w(1, 1) = 1.0f;
    const_cast<Linear &>(gcn.linear()).bias_ref() = {0.0f, 0.0f};
    // Node 0 has in_deg 1 -> self scale 1/2.
    Vec out = transform_of(gcn, {4, 8}, {1, 1}, 0, ctx);
    EXPECT_FLOAT_EQ(out[0], 1.0f + 2.0f);
    EXPECT_FLOAT_EQ(out[1], 1.0f + 4.0f);
}

TEST(GinLayer, MessageIsReluOfSumWithEdgeEncoding)
{
    Rng rng(4);
    GinLayer gin(3, 0, Activation::kRelu, rng); // no edge features
    GraphSample s = tiny_sample(3, 0);
    LayerContext ctx = make_layer_context(s);
    Vec m = message_of(gin, {-1.0f, 0.0f, 2.0f}, nullptr, 0, 0, 1, ctx);
    EXPECT_EQ(m, (Vec{0.0f, 0.0f, 2.0f}));
}

TEST(GinLayer, EdgeFeaturesShiftMessages)
{
    Rng rng(4);
    GinLayer gin(3, 2, Activation::kRelu, rng);
    GraphSample s = tiny_sample(3, 2);
    LayerContext ctx = make_layer_context(s);
    float ef_a[2] = {0.5f, -0.5f};
    float ef_b[2] = {-0.5f, 0.5f};
    Vec x{1.0f, 1.0f, 1.0f};
    Vec ma = message_of(gin, x, ef_a, 2, 0, 1, ctx);
    Vec mb = message_of(gin, x, ef_b, 2, 0, 1, ctx);
    EXPECT_GT(max_abs_diff(ma, mb), 0.0f)
        << "distinct edge features must yield distinct messages";
}

TEST(GinLayer, TransformUsesEpsilonWeightedSelf)
{
    Rng rng(4);
    GinLayer gin(2, 0, Activation::kIdentity, rng);
    GraphSample s = tiny_sample(2, 0);
    LayerContext ctx = make_layer_context(s);
    // (1+eps)*x + agg with eps=0.1.
    Vec a = transform_of(gin, {1, 1}, {0, 0}, 0, ctx);
    Vec b = transform_of(gin, {0, 0}, {1.1f, 1.1f}, 0, ctx);
    EXPECT_LT(max_abs_diff(a, b), 1e-5f);
}

TEST(PnaLayer, DimsAndAggregator)
{
    Rng rng(5);
    PnaLayer pna(8, 2, Activation::kRelu, rng);
    EXPECT_EQ(pna.msg_dim(), 8u);
    EXPECT_EQ(pna.aggregator_kind(), AggregatorKind::kPna);
    EXPECT_EQ(pna.aggregator().out_dim(), 96u);
    EXPECT_EQ(pna.nt_pass_dims(), (std::vector<std::size_t>{104}));
}

TEST(PnaLayer, TransformConsumesConcatenation)
{
    Rng rng(5);
    PnaLayer pna(4, 0, Activation::kIdentity, rng);
    GraphSample s = tiny_sample(4, 0);
    LayerContext ctx = make_layer_context(s);
    Vec agg(48, 0.1f);
    Vec out = transform_of(pna, {1, 2, 3, 4}, agg, 0, ctx);
    EXPECT_EQ(out.size(), 4u);
}

TEST(DgnLayer, MessageCarriesMeanAndDirectionalParts)
{
    Rng rng(6);
    DgnLayer dgn(2, 0, Activation::kRelu, rng);
    GraphSample s = tiny_sample(2, 0);
    s.dgn_field = {0.0f, 2.0f, 0.0f, 0.0f};
    LayerContext ctx = make_layer_context(s);
    // Edge 0->1: w = (u0-u1)/norm[1] = -2/(2+eps) ~ -1.
    Vec m = message_of(dgn, {3.0f, 5.0f}, nullptr, 0, 0, 1, ctx);
    ASSERT_EQ(m.size(), 4u);
    EXPECT_FLOAT_EQ(m[0], 3.0f);
    EXPECT_FLOAT_EQ(m[1], 5.0f);
    EXPECT_NEAR(m[2], -3.0f, 1e-4f);
    EXPECT_NEAR(m[3], -5.0f, 1e-4f);
}

TEST(DgnLayer, MissingFieldThrows)
{
    Rng rng(6);
    DgnLayer dgn(2, 0, Activation::kRelu, rng);
    GraphSample s = tiny_sample(2, 0);
    LayerContext ctx = make_layer_context(s);
    EXPECT_THROW(message_of(dgn, {1, 1}, nullptr, 0, 0, 1, ctx),
                 std::invalid_argument);
}

TEST(GatLayer, DimsAndDataflow)
{
    Rng rng(7);
    GatLayer gat(8, 4, 16, Activation::kElu, rng);
    EXPECT_EQ(gat.out_dim(), 64u);
    EXPECT_EQ(gat.dataflow(), DataflowKind::kMpToNt);
    EXPECT_EQ(gat.mp_rounds(), 2u);
}

TEST(GatLayer, UniformNeighborhoodAveragesToSelf)
{
    // If all projections are identical, attention weights are uniform
    // and the combine returns act(h) itself.
    Rng rng(7);
    GatLayer gat(4, 2, 3, Activation::kIdentity, rng);
    Vec h = project_of(gat, {0.5f, -0.5f, 1.0f, 0.0f});
    Vec out = combine_of(gat, h, {h, h, h});
    EXPECT_LT(max_abs_diff(out, h), 1e-5f);
}

TEST(GatLayer, AttentionIsAWeightedAverage)
{
    // Output of each head must lie inside the convex hull of the
    // inputs (attention weights sum to 1 and are positive).
    Rng rng(8);
    GatLayer gat(4, 1, 4, Activation::kIdentity, rng);
    Vec h_self = project_of(gat, {1, 0, 0, 0});
    Vec h_a = project_of(gat, {0, 1, 0, 0});
    Vec h_b = project_of(gat, {0, 0, 1, 0});
    Vec out = combine_of(gat, h_self, {h_a, h_b});
    for (std::size_t d = 0; d < 4; ++d) {
        float lo = std::min({h_self[d], h_a[d], h_b[d]});
        float hi = std::max({h_self[d], h_a[d], h_b[d]});
        EXPECT_GE(out[d], lo - 1e-5f);
        EXPECT_LE(out[d], hi + 1e-5f);
    }
}

TEST(GatLayer, EmptyNeighborhoodReturnsActivatedSelf)
{
    Rng rng(9);
    GatLayer gat(4, 2, 2, Activation::kElu, rng);
    Vec h = project_of(gat, {1, 2, 3, 4});
    Vec out = combine_of(gat, h, {});
    Vec expected = h;
    apply_activation(expected, Activation::kElu);
    EXPECT_LT(max_abs_diff(out, expected), 1e-6f);
}

TEST(GatLayer, ScoresUseLeakyRelu)
{
    Rng rng(10);
    GatLayer gat(2, 1, 2, Activation::kIdentity, rng);
    Vec h1 = project_of(gat, {1, 0});
    Vec h2 = project_of(gat, {0, 1});
    // One head, one neighbor: the combine weights are the softmax of
    // LeakyReLU(a_src . h_j + a_dst . h_i) over {self, neighbor}.
    float s_self = 0.0f, s_nbr = 0.0f, d = 0.0f;
    gat.src_scores(h2.data(), &s_self);
    gat.src_scores(h1.data(), &s_nbr);
    gat.dst_scores(h2.data(), &d);
    const float l_self = activate(s_self + d, Activation::kLeakyRelu);
    const float l_nbr = activate(s_nbr + d, Activation::kLeakyRelu);
    const float top = std::max(l_self, l_nbr);
    const float w_self = std::exp(l_self - top);
    const float w_nbr = std::exp(l_nbr - top);
    Vec out = combine_of(gat, h2, {h1});
    for (std::size_t k = 0; k < 2; ++k)
        EXPECT_FLOAT_EQ(out[k], (w_self * h2[k] + w_nbr * h1[k]) /
                                    (w_self + w_nbr));
}

TEST(Layer, BaseMessageThrowsForMessagelessLayers)
{
    // The encoder has no messages; GAT attends through gat_combine.
    Rng rng(11);
    EncoderLayer enc(2, 2, rng);
    GatLayer gat(2, 1, 2, Activation::kIdentity, rng);
    GraphSample s = tiny_sample(2, 0);
    LayerContext ctx = make_layer_context(s);
    EXPECT_THROW(message_of(enc, {1, 1}, nullptr, 0, 0, 1, ctx),
                 std::logic_error);
    EXPECT_THROW(message_of(gat, {1, 1}, nullptr, 0, 0, 1, ctx),
                 std::logic_error);
}

TEST(LayerContract, FusedColumnEqualsOneEdgeCalls)
{
    // Layer::gather over a k-edge column == k one-edge calls in the
    // same order, bit for bit: column batching never changes a value.
    // Every message-passing layer (built-in and the custom_gnn
    // example's), with edge features and fixed point on and off.
    static constexpr std::size_t kDim = 8;
    static constexpr std::size_t kEdgeDim = 3;
    GraphSample s = testing::make_random_sample(
        testing::make_random_graph(1, 90, 0xC0), kDim, kEdgeDim, 0xC1);
    Rng field_rng(0xC2);
    for (NodeId v = 0; v < s.num_nodes(); ++v)
        s.dgn_field.push_back(static_cast<float>(field_rng.uniform(-1, 1)));
    const LayerContext ctx = make_layer_context(s);

    using Factory =
        std::function<std::unique_ptr<Layer>(std::size_t, Rng &)>;
    const std::vector<std::pair<const char *, Factory>> layers = {
        {"gcn",
         [](std::size_t, Rng &r) {
             return std::make_unique<GcnLayer>(kDim, kDim,
                                               Activation::kRelu, r);
         }},
        {"gin",
         [](std::size_t ed, Rng &r) {
             return std::make_unique<GinLayer>(kDim, ed, Activation::kRelu,
                                               r);
         }},
        {"sage",
         [](std::size_t, Rng &r) {
             return std::make_unique<SageLayer>(kDim, kDim,
                                                Activation::kRelu, r);
         }},
        {"sgc",
         [](std::size_t, Rng &) {
             return std::make_unique<SgcLayer>(kDim);
         }},
        {"pna",
         [](std::size_t ed, Rng &r) {
             return std::make_unique<PnaLayer>(kDim, ed, Activation::kRelu,
                                               r);
         }},
        {"dgn",
         [](std::size_t ed, Rng &r) {
             return std::make_unique<DgnLayer>(kDim, ed, Activation::kRelu,
                                               r);
         }},
        {"new-gnn",
         [](std::size_t ed, Rng &r) {
             return std::make_unique<examples::NewGnnLayer>(kDim, ed, r);
         }},
    };

    Rng rng(0xC3);
    for (const auto &[name, make] : layers) {
        for (bool edges : {false, true}) {
            for (bool fixed : {false, true}) {
                for (std::size_t k : {0u, 1u, 7u, 70u}) {
                    SCOPED_TRACE(::testing::Message()
                                 << name << " edges=" << edges
                                 << " fixed=" << fixed << " k=" << k);
                    Rng layer_rng(0xC4);
                    const auto layer =
                        make(edges ? kEdgeDim : 0, layer_rng);
                    std::vector<NodeId> src(k);
                    std::vector<EdgeId> ids(k);
                    for (std::size_t j = 0; j < k; ++j) {
                        src[j] = static_cast<NodeId>(
                            rng.uniform_index(s.num_nodes()));
                        ids[j] = static_cast<EdgeId>(
                            rng.uniform_index(s.num_edges()));
                    }
                    const auto dst = static_cast<NodeId>(
                        rng.uniform_index(s.num_nodes()));
                    MessageInputs in;
                    in.x = s.node_features.data();
                    if (edges) {
                        in.edge_features = s.edge_features.data();
                        in.edge_dim = kEdgeDim;
                    }
                    if (fixed)
                        in.fixed = &kFixed16_10;

                    const Aggregator agg = layer->aggregator();
                    std::vector<float> fused(agg.state_dim());
                    agg.init(fused.data());
                    const std::vector<float> init = fused;
                    std::vector<float> single = init;
                    layer->gather({dst, k, src.data(),
                                   edges ? ids.data() : nullptr},
                                  in, ctx, fused.data());
                    for (std::size_t j = 0; j < k; ++j)
                        layer->gather({dst, 1, &src[j],
                                       edges ? &ids[j] : nullptr},
                                      in, ctx, single.data());
                    EXPECT_EQ(fused, single);
                    if (k > 0)
                        EXPECT_NE(fused, init) << "messages folded in";
                }
            }
        }
    }
}

TEST(LayerContract, TransformRowsEqualsOneRowCalls)
{
    // Layer::transform_rows over a block of rows == one one-row call
    // per node, bit for bit: the row tiles never change a value. Every
    // layer (built-in, the GAT projection and the custom_gnn example's)
    // at a non-zero first node, on raw and on Q16.10-quantized inputs.
    // PNA at dim 80 mixes a 13 x 80-wide row, so its 4-row tiles run
    // past ScratchRow's stack.
    GraphSample s = testing::make_random_sample(
        testing::make_random_graph(2, 80, 0xD0), 4, 0, 0xD1);
    const LayerContext ctx = make_layer_context(s);
    constexpr NodeId kFirst = 13;

    Rng rng(0xD2);
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<EncoderLayer>(9, 16, rng));
    layers.push_back(
        std::make_unique<GcnLayer>(16, 7, Activation::kRelu, rng));
    layers.push_back(
        std::make_unique<GinLayer>(16, 3, Activation::kRelu, rng));
    layers.push_back(
        std::make_unique<PnaLayer>(80, 3, Activation::kRelu, rng));
    layers.push_back(
        std::make_unique<DgnLayer>(12, 0, Activation::kRelu, rng));
    layers.push_back(
        std::make_unique<SageLayer>(16, 9, Activation::kRelu, rng));
    layers.push_back(std::make_unique<SgcLayer>(10));
    layers.push_back(
        std::make_unique<GatLayer>(64, 4, 16, Activation::kElu, rng));
    layers.push_back(std::make_unique<examples::NewGnnLayer>(16, 3, rng));

    for (const auto &layer : layers) {
        const bool has_agg = layer->msg_dim() > 0 &&
                             layer->dataflow() == DataflowKind::kNtToMp;
        const std::size_t in = layer->in_dim();
        const std::size_t ad = has_agg ? layer->aggregator().out_dim() : 0;
        const std::size_t od = layer->out_dim();
        for (bool fixed : {false, true}) {
            for (std::size_t count : {0u, 1u, 3u, 4u, 5u, 8u, 9u, 50u}) {
                SCOPED_TRACE(::testing::Message()
                             << layer->name() << " fixed=" << fixed
                             << " count=" << count);
                ASSERT_LE(kFirst + count, s.num_nodes());
                std::vector<float> x(count * in);
                std::vector<float> agg(count * ad);
                for (float &v : x)
                    v = static_cast<float>(rng.uniform(-2, 2));
                for (float &v : agg)
                    v = static_cast<float>(rng.uniform(-2, 2));
                if (fixed) {
                    quantize_inplace(x.data(), x.size(), kFixed16_10);
                    quantize_inplace(agg.data(), agg.size(), kFixed16_10);
                }
                const float *a = has_agg ? agg.data() : nullptr;
                std::vector<float> block(count * od);
                layer->transform_rows(x.data(), a, kFirst, count, ctx,
                                      block.data());
                std::vector<float> rows(count * od);
                for (std::size_t r = 0; r < count; ++r)
                    layer->transform_rows(
                        x.data() + r * in,
                        has_agg ? agg.data() + r * ad : nullptr,
                        static_cast<NodeId>(kFirst + r), 1, ctx,
                        rows.data() + r * od);
                EXPECT_EQ(block, rows);
            }
        }
    }
}

} // namespace
} // namespace flowgnn
