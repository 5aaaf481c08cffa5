/** @file Model factory / reference-executor tests. */
#include <gtest/gtest.h>

#include <cmath>

#include "datasets/dataset.h"
#include "nn/encoder_layer.h"
#include "nn/model.h"
#include "tensor/ops.h"

namespace flowgnn {
namespace {

TEST(ModelFactory, PaperConfigurations)
{
    // Paper Sec. VI-A: layer counts and hidden dims per model.
    struct Expect {
        ModelKind kind;
        std::size_t stages; // encoder + conv layers
        std::size_t dim;
    };
    const Expect cases[] = {
        {ModelKind::kGcn, 6, 100},   {ModelKind::kGin, 6, 100},
        {ModelKind::kGinVn, 6, 100}, {ModelKind::kGat, 6, 64},
        {ModelKind::kPna, 5, 80},    {ModelKind::kDgn, 5, 100},
        {ModelKind::kGcn16, 3, 16},
    };
    for (const auto &c : cases) {
        Model m = make_model(c.kind, 9, 3);
        EXPECT_EQ(m.num_stages(), c.stages) << model_name(c.kind);
        EXPECT_EQ(m.embedding_dim(), c.dim) << model_name(c.kind);
        EXPECT_EQ(m.head().in_dim(), c.dim) << model_name(c.kind);
        EXPECT_EQ(m.head().out_dim(), 1u) << model_name(c.kind);
    }
}

TEST(ModelFactory, VirtualNodeAndDgnFlags)
{
    EXPECT_TRUE(make_model(ModelKind::kGinVn, 4, 2).uses_virtual_node());
    EXPECT_FALSE(make_model(ModelKind::kGin, 4, 2).uses_virtual_node());
    EXPECT_TRUE(make_model(ModelKind::kDgn, 4, 2).needs_dgn_field());
    EXPECT_FALSE(make_model(ModelKind::kGcn, 4, 2).needs_dgn_field());
}

TEST(ModelFactory, SeedDeterminism)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 0);
    Model a = make_model(ModelKind::kGin, s.node_dim(), s.edge_dim(), 7);
    Model b = make_model(ModelKind::kGin, s.node_dim(), s.edge_dim(), 7);
    Model c = make_model(ModelKind::kGin, s.node_dim(), s.edge_dim(), 8);
    EXPECT_EQ(a.predict(s), b.predict(s));
    EXPECT_NE(a.predict(s), c.predict(s));
}

TEST(ModelFactory, NamesMatchKinds)
{
    EXPECT_STREQ(model_name(ModelKind::kGinVn), "GIN+VN");
    EXPECT_EQ(make_model(ModelKind::kPna, 4, 0).name(), "PNA");
}

TEST(Model, DimensionMismatchRejectedAtConstruction)
{
    Rng rng(1);
    std::vector<std::unique_ptr<Layer>> stages;
    stages.push_back(std::make_unique<EncoderLayer>(4, 8, rng));
    Mlp head({16, 1}); // mismatched with stage out_dim 8
    EXPECT_THROW(Model("bad", std::move(stages), std::move(head)),
                 std::invalid_argument);
}

TEST(Model, PrepareAddsVirtualNode)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 1);
    Model m = make_model(ModelKind::kGinVn, s.node_dim(), s.edge_dim());
    GraphSample p = m.prepare(s);
    EXPECT_EQ(p.num_nodes(), s.num_nodes() + 1);
    EXPECT_EQ(p.pool_nodes(), s.num_nodes());
}

TEST(Model, PrepareComputesDgnFieldDeterministically)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 1);
    Model m = make_model(ModelKind::kDgn, s.node_dim(), s.edge_dim());
    GraphSample p1 = m.prepare(s);
    GraphSample p2 = m.prepare(s);
    ASSERT_EQ(p1.dgn_field.size(), s.num_nodes());
    EXPECT_EQ(p1.dgn_field, p2.dgn_field);
}

TEST(Model, ReferenceEmbeddingsShape)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 2);
    for (ModelKind kind : kPaperModels) {
        Model m = make_model(kind, s.node_dim(), s.edge_dim());
        GraphSample p = m.prepare(s);
        Matrix emb = m.reference_embeddings(p);
        EXPECT_EQ(emb.rows(), p.num_nodes()) << model_name(kind);
        EXPECT_EQ(emb.cols(), m.embedding_dim()) << model_name(kind);
    }
}

TEST(Model, EdgeFeaturesInfluenceGin)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 3);
    Model m = make_model(ModelKind::kGin, s.node_dim(), s.edge_dim());
    float base = m.predict(s);
    GraphSample perturbed = s;
    perturbed.edge_features(0, 0) += 1.0f;
    EXPECT_NE(m.predict(perturbed), base)
        << "GIN must be sensitive to edge embeddings";
}

TEST(Model, IsolatedNodesAreHandled)
{
    GraphSample s;
    s.graph.num_nodes = 5; // no edges at all
    s.node_features = Matrix(5, 4, 0.1f);
    for (ModelKind kind : kPaperModels) {
        Model m = make_model(kind, 4, 0);
        float p = m.predict(s);
        EXPECT_TRUE(std::isfinite(p)) << model_name(kind);
    }
}

TEST(Model, GlobalMeanPoolExcludesVirtualRows)
{
    Model m = make_model(ModelKind::kGcn, 4, 0);
    Matrix emb(3, 100, 1.0f);
    for (std::size_t c = 0; c < 100; ++c)
        emb(2, c) = 100.0f; // the "virtual" row
    Vec pooled = m.global_pool(emb, 2); // mean pooling by default
    for (float v : pooled)
        EXPECT_FLOAT_EQ(v, 1.0f);
    EXPECT_THROW(m.global_pool(emb, 0), std::invalid_argument);
    EXPECT_THROW(m.global_pool(emb, 4), std::invalid_argument);
}

TEST(Model, MacsScaleWithGraphSize)
{
    Model m = make_model(ModelKind::kGcn, 9, 3);
    GraphSample small = make_sample(DatasetKind::kMolHiv, 0);
    GraphSample big = make_sample(DatasetKind::kHep, 0);
    EXPECT_GT(m.macs(big), m.macs(small));
}

TEST(Model, MacsOrderingAcrossModels)
{
    GraphSample s = make_sample(DatasetKind::kHep, 0);
    auto macs = [&](ModelKind k) {
        Model m = make_model(k, s.node_dim(), s.edge_dim());
        return m.macs(m.prepare(s));
    };
    // PNA's 13d-wide transform is the heaviest; GAT (dim 64) lightest.
    EXPECT_GT(macs(ModelKind::kPna), macs(ModelKind::kGcn));
    EXPECT_GT(macs(ModelKind::kGin), macs(ModelKind::kGcn));
    EXPECT_LT(macs(ModelKind::kGat), macs(ModelKind::kGin));
}

TEST(Model, FeatureDimMismatchThrows)
{
    Model m = make_model(ModelKind::kGcn, 9, 3);
    GraphSample s = make_sample(DatasetKind::kCora, 0); // dim 64
    EXPECT_THROW(m.reference_embeddings(s), std::invalid_argument);
}

} // namespace
} // namespace flowgnn
