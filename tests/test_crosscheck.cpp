/**
 * @file
 * Engine-vs-reference functional cross-check: the analogue of the
 * paper's PyTorch end-to-end verification. For every model, the
 * dataflow engine's node embeddings and prediction must equal the
 * independent per-edge oracle (testing::naive_reference_embeddings)
 * bit for bit, at every NT-unit count and in every pipeline mode: the
 * engine's values come from the functional kernel, whose gathers fold
 * each destination's messages in src-major order however the modeled
 * units would deliver them.
 */
#include <gtest/gtest.h>

#include "core/engine.h"
#include "datasets/dataset.h"
#include "tensor/ops.h"
#include "testing_util.h"

namespace flowgnn {
namespace {

struct CrossCheckCase {
    ModelKind model;
    EngineConfig config;
};

class CrossCheckTest : public ::testing::TestWithParam<CrossCheckCase>
{
};

TEST_P(CrossCheckTest, MatchesReference)
{
    const auto &[kind, cfg] = GetParam();
    GraphSample sample = make_sample(DatasetKind::kMolHiv, 3);
    Model model = make_model(kind, sample.node_dim(), sample.edge_dim());
    Engine engine(model, cfg);

    RunResult result = engine.run(sample);
    GraphSample prepared = model.prepare(sample);
    Matrix expected = testing::naive_reference_embeddings(model, prepared);

    ASSERT_EQ(result.embeddings.rows(), expected.rows());
    ASSERT_EQ(result.embeddings.cols(), expected.cols());
    EXPECT_EQ(max_abs_diff(result.embeddings, expected), 0.0f);
    EXPECT_EQ(result.prediction,
              model.readout(expected, prepared.pool_nodes()));
    EXPECT_GT(result.stats.total_cycles, 0u);
}

EngineConfig
cfg(std::uint32_t pn, std::uint32_t pe, std::uint32_t pa, std::uint32_t ps,
    PipelineMode mode = PipelineMode::kFlowGnn)
{
    EngineConfig c;
    c.p_node = pn;
    c.p_edge = pe;
    c.p_apply = pa;
    c.p_scatter = ps;
    c.mode = mode;
    return c;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, CrossCheckTest,
    ::testing::Values(
        CrossCheckCase{ModelKind::kGcn, cfg(1, 4, 4, 8)},
        CrossCheckCase{ModelKind::kGin, cfg(1, 4, 4, 8)},
        CrossCheckCase{ModelKind::kGinVn, cfg(1, 4, 4, 8)},
        CrossCheckCase{ModelKind::kGat, cfg(1, 4, 4, 8)},
        CrossCheckCase{ModelKind::kPna, cfg(1, 4, 4, 8)},
        CrossCheckCase{ModelKind::kDgn, cfg(1, 4, 4, 8)},
        CrossCheckCase{ModelKind::kGcn, cfg(2, 4, 4, 8)},
        CrossCheckCase{ModelKind::kGin, cfg(2, 4, 4, 8)},
        CrossCheckCase{ModelKind::kGat, cfg(2, 4, 4, 8)},
        CrossCheckCase{ModelKind::kPna, cfg(4, 2, 2, 4)},
        CrossCheckCase{ModelKind::kDgn, cfg(2, 2, 1, 1)},
        CrossCheckCase{ModelKind::kGin, cfg(1, 1, 1, 1)},
        CrossCheckCase{ModelKind::kGin,
                       cfg(1, 1, 1, 1, PipelineMode::kBaselineDataflow)},
        CrossCheckCase{ModelKind::kGat,
                       cfg(1, 2, 2, 2, PipelineMode::kBaselineDataflow)},
        CrossCheckCase{ModelKind::kGin,
                       cfg(1, 1, 2, 2, PipelineMode::kNonPipelined)},
        CrossCheckCase{ModelKind::kGin,
                       cfg(1, 1, 2, 2, PipelineMode::kFixedPipeline)},
        CrossCheckCase{ModelKind::kGat,
                       cfg(2, 4, 2, 2, PipelineMode::kNonPipelined)},
        CrossCheckCase{ModelKind::kPna,
                       cfg(2, 4, 2, 2, PipelineMode::kNonPipelined)},
        CrossCheckCase{ModelKind::kDgn,
                       cfg(2, 4, 2, 2, PipelineMode::kFixedPipeline)},
        CrossCheckCase{ModelKind::kGinVn,
                       cfg(2, 4, 2, 2, PipelineMode::kFixedPipeline)},
        CrossCheckCase{ModelKind::kGcn,
                       cfg(1, 3, 4, 8, PipelineMode::kBaselineDataflow)},
        CrossCheckCase{ModelKind::kSage,
                       cfg(3, 4, 4, 8, PipelineMode::kBaselineDataflow)},
        CrossCheckCase{ModelKind::kSgc, cfg(2, 4, 4, 8)}));

} // namespace
} // namespace flowgnn
