/**
 * @file
 * Differential fuzz suite: the correctness net under the sharded
 * execution work. ~200 seeded random graphs, rotating through every
 * model kind (all layer families) and all four pipeline modes, assert
 * that the cycle-stepped engine matches the reference executor — and
 * a second pass asserts sharded execution matches unsharded across
 * shard counts and strategies.
 *
 * Exactness policy mirrors test_crosscheck: every run must be
 * bit-identical, in every pipeline mode and at every NT-unit count.
 * Values come from the functional kernel, which folds each
 * destination's messages in src-major order whatever order the modeled
 * units deliver them in; the expected values come from the independent
 * per-edge oracle (testing::naive_reference_embeddings).
 */
#include <gtest/gtest.h>

#include "core/engine.h"
#include "ghost/ghost_engine.h"
#include "tensor/ops.h"
#include "testing_util.h"

namespace flowgnn {
namespace {

using testing::make_random_graph;
using testing::make_random_sample;
using testing::naive_reference_embeddings;

constexpr ModelKind kAllKinds[] = {
    ModelKind::kGcn, ModelKind::kGin,   ModelKind::kGinVn,
    ModelKind::kGat, ModelKind::kPna,   ModelKind::kDgn,
    ModelKind::kGcn16, ModelKind::kSage, ModelKind::kSgc,
};
constexpr PipelineMode kAllModes[] = {
    PipelineMode::kNonPipelined,
    PipelineMode::kFixedPipeline,
    PipelineMode::kBaselineDataflow,
    PipelineMode::kFlowGnn,
};

TEST(DifferentialFuzz, EngineMatchesReferenceOn200RandomGraphs)
{
    constexpr int kCases = 200;
    for (int i = 0; i < kCases; ++i) {
        const std::uint64_t seed = 0x5EED0000ull + i;
        const ModelKind kind =
            kAllKinds[i % std::size(kAllKinds)];
        const PipelineMode mode =
            kAllModes[(i / std::size(kAllKinds)) % std::size(kAllModes)];

        // Every parameter rotates on a distinct stride so the 200
        // cases cover the cross product (bit-exact x edge-featured,
        // p_apply x dim divisibility, ...), not one diagonal of it.
        const NodeId n = 6 + i % 40;
        CooGraph g = make_random_graph(i, n, seed);
        const std::size_t node_dim = 4 + (i % 3) * 6;
        const std::size_t edge_dim = ((i / 2) % 2) ? 6 : 0;
        GraphSample sample =
            make_random_sample(std::move(g), node_dim, edge_dim,
                               seed + 1);

        EngineConfig cfg;
        cfg.p_node = 1 + i % 2;
        cfg.p_edge = 1 + i % 4;
        cfg.p_apply = 1 + ((i / 3) % 3) * 3;
        cfg.p_scatter = 1 + ((i / 5) % 4) * 2;
        cfg.queue_depth = 2 + (i / 7) % 7;
        cfg.mode = mode;

        SCOPED_TRACE(::testing::Message()
                     << "case " << i << ": " << model_name(kind) << " / "
                     << pipeline_mode_name(mode) << " / n=" << n
                     << " pn=" << cfg.p_node);

        Model model = make_model(kind, node_dim, edge_dim, seed);
        Engine engine(model, cfg);
        RunResult result = engine.run(sample);

        GraphSample prepared = model.prepare(sample);
        Matrix expected = naive_reference_embeddings(model, prepared);
        ASSERT_EQ(result.embeddings.rows(), expected.rows());
        ASSERT_EQ(result.embeddings.cols(), expected.cols());

        // Reference prediction through the same pool + head code path
        // (avoids a second full reference run via model.predict).
        Vec pooled =
            model.global_pool(expected, prepared.pool_nodes());
        float expected_pred = model.head().forward(pooled)[0];

        EXPECT_EQ(max_abs_diff(result.embeddings, expected), 0.0f);
        EXPECT_EQ(result.prediction, expected_pred);
        EXPECT_GT(result.stats.total_cycles, 0u);
    }
}

TEST(DifferentialFuzz, GhostMatchesUnshardedOn56RandomGraphs)
{
    // Every strategy, 2-4 dies, every model kind: the ghost path and
    // the unsharded engine both take their values from the functional
    // kernel, so results must be bit-identical at every NT-unit
    // count.
    constexpr ShardStrategy kStrategies[] = {
        ShardStrategy::kModulo,        ShardStrategy::kContiguous,
        ShardStrategy::kGreedyBalanced, ShardStrategy::kBfsContiguous,
        ShardStrategy::kLdg,           ShardStrategy::kFennel,
        ShardStrategy::kHdrf,
    };
    constexpr int kCases = 56; // exactly 8 cases per strategy (i % 7)
    for (int i = 0; i < kCases; ++i) {
        const std::uint64_t seed = 0x6AAD0000ull + i;
        const ModelKind kind =
            kAllKinds[i % std::size(kAllKinds)];

        const NodeId n = 60 + 4 * i;
        CooGraph g = make_random_graph(i, n, seed);
        const std::size_t node_dim = 8;
        const std::size_t edge_dim = ((i / 2) % 2) ? 4 : 0;
        GraphSample sample =
            make_random_sample(std::move(g), node_dim, edge_dim,
                               seed + 1);

        EngineConfig cfg;
        cfg.p_node = 1 + i % 2;
        ShardConfig shard;
        shard.num_shards = 2 + i % 3;
        shard.strategy = kStrategies[i % std::size(kStrategies)];

        SCOPED_TRACE(::testing::Message()
                     << "ghost case " << i << ": " << model_name(kind)
                     << " / shards=" << shard.num_shards << " / "
                     << shard_strategy_name(shard.strategy)
                     << " / pn=" << cfg.p_node << " / n=" << n);

        Model model = make_model(kind, node_dim, edge_dim, seed);
        RunResult single = Engine(model, cfg).run(sample);
        RunResult sharded =
            ShardedEngine(model, cfg, shard).run(sample);

        ASSERT_EQ(sharded.embeddings.rows(), single.embeddings.rows());
        EXPECT_EQ(max_abs_diff(sharded.embeddings, single.embeddings),
                  0.0f);
        EXPECT_EQ(sharded.prediction, single.prediction);
    }
}

TEST(DifferentialFuzz, GhostFixedPointStaysBitExactWhenOrderPreserved)
{
    // The fixed-point wire format is where ghost mode could diverge:
    // every boundary crossing re-quantizes the shipped embedding. The
    // engine's quantizer is idempotent (shipped values are already
    // exactly representable), so re-quantization must be
    // value-preserving and ghost runs stay BIT-EXACT against the
    // unsharded fixed-point engine, at every precision down to 8_4. No
    // looser fixed-point tolerance exists or is needed.
    constexpr FixedPointFormat kFormats[] = {kFixed16_10, kFixed12_8,
                                             kFixed8_4};
    constexpr ShardStrategy kStrategies[] = {
        ShardStrategy::kContiguous, ShardStrategy::kFennel,
        ShardStrategy::kHdrf};
    int i = 0;
    for (const FixedPointFormat &format : kFormats) {
        for (ShardStrategy strategy : kStrategies) {
            const std::uint64_t seed = 0x7AAD0000ull + i;
            const ModelKind kind = kAllKinds[i % std::size(kAllKinds)];
            CooGraph g = make_random_graph(i, 80 + 8 * i, seed);
            GraphSample sample =
                make_random_sample(std::move(g), 8, 0, seed + 1);

            EngineConfig cfg;
            cfg.p_node = 1;
            RunOptions opts;
            opts.emulate_fixed_point = true;
            opts.fixed_point = format;
            ShardConfig shard;
            shard.num_shards = 3;
            shard.strategy = strategy;

            SCOPED_TRACE(::testing::Message()
                         << "fixed case " << i << ": "
                         << model_name(kind) << " / "
                         << shard_strategy_name(strategy) << " / Q"
                         << format.total_bits << "."
                         << format.frac_bits);

            Model model = make_model(kind, 8, 0, seed);
            RunResult single = Engine(model, cfg).run(sample, opts);
            RunResult sharded =
                ShardedEngine(model, cfg, shard).run(sample, opts);

            EXPECT_EQ(
                max_abs_diff(sharded.embeddings, single.embeddings),
                0.0f);
            EXPECT_EQ(sharded.prediction, single.prediction);
            ++i;
        }
    }
}

TEST(DifferentialFuzz, GhostPreemptAtEveryLayerBitIdentical)
{
    // Layer-boundary preemption sweep: a GCN-16 ghost run is forced to
    // checkpoint after every k = 1, 2, ... stages and resumed, for all
    // seven partition strategies. Each resumed run must reproduce the
    // uninterrupted run bit for bit — embeddings, prediction, and the
    // composed cycle counts (the per-die timing passes are structural
    // and run once at completion, so even timing cannot drift).
    constexpr ShardStrategy kStrategies[] = {
        ShardStrategy::kModulo,        ShardStrategy::kContiguous,
        ShardStrategy::kGreedyBalanced, ShardStrategy::kBfsContiguous,
        ShardStrategy::kLdg,           ShardStrategy::kFennel,
        ShardStrategy::kHdrf,
    };
    const std::uint64_t seed = 0x9AAD0000ull;
    Model model = make_model(ModelKind::kGcn16, 8, 0, seed);
    GraphSample sample = make_random_sample(
        make_random_graph(1, 180, seed), 8, 0, seed + 1);
    GraphSample prepared = model.prepare(sample);
    EngineConfig cfg;
    RunOptions opts;
    LinkConfig link;

    for (ShardStrategy strategy : kStrategies) {
        ShardConfig shard;
        shard.num_shards = 3;
        shard.strategy = strategy;
        SCOPED_TRACE(::testing::Message()
                     << shard_strategy_name(strategy));

        GhostPlan ref_plan = make_ghost_plan(model, prepared, shard);
        ASSERT_TRUE(ref_plan.sharded);
        RunResult ref = run_ghost_plan(
            model, cfg, prepared, std::move(ref_plan), opts, link);

        for (std::size_t k = 1;; ++k) {
            SCOPED_TRACE(::testing::Message() << "preempt at k=" << k);
            LayerCheckpoint ckpt;
            RunResult got;
            const GhostPlan plan = make_ghost_plan(model, prepared, shard);
            const bool hit_boundary =
                run_ghost_plan(model, cfg, SampleRef(prepared), plan, opts,
                               link, ckpt, got, k) ==
                SegmentOutcome::kPreempted;
            if (hit_boundary) {
                ASSERT_EQ(ckpt.next_stage, k);
                ASSERT_EQ(run_ghost_plan(model, cfg, SampleRef(prepared),
                                         plan, opts, link, ckpt, got),
                          SegmentOutcome::kComplete);
            }
            EXPECT_EQ(max_abs_diff(got.embeddings, ref.embeddings),
                      0.0f);
            EXPECT_EQ(got.prediction, ref.prediction);
            EXPECT_EQ(got.stats.total_cycles, ref.stats.total_cycles);
            EXPECT_EQ(got.stats.comm_cycles, ref.stats.comm_cycles);
            ASSERT_EQ(got.shards.size(), ref.shards.size());
            for (std::size_t s = 0; s < ref.shards.size(); ++s)
                EXPECT_EQ(got.shards[s].stats.total_cycles,
                          ref.shards[s].stats.total_cycles)
                    << "shard " << s;
            if (!hit_boundary)
                break; // k reached the stage count: sweep complete
        }
    }
}

} // namespace
} // namespace flowgnn
