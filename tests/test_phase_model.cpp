/**
 * @file
 * Timing exactness of the phase model against the frozen per-cycle
 * oracle (testing::naive_run_phase and its stage loop): every RunStats
 * field, trace events included, must match with tracing on and off,
 * across pipeline modes, queue depths, unit shapes, models and graph
 * shapes; through Engine resume at every layer boundary; and per die
 * of ghost-exchange runs. Also pins that ring storage follows the
 * phase's traffic, not a user-set queue depth.
 */
#include <gtest/gtest.h>

#include <string>

#include "core/engine.h"
#include "datasets/dataset.h"
#include "ghost/ghost_engine.h"
#include "graph/generators.h"
#include "testing_util.h"

namespace flowgnn {
namespace {

using testing::make_random_sample;
using testing::naive_engine_stats;
using testing::naive_ghost_die_stats;

void
expect_same_stats(const RunStats &got, const RunStats &want)
{
    EXPECT_EQ(got.clock_mhz, want.clock_mhz);
    EXPECT_EQ(got.total_cycles, want.total_cycles);
    EXPECT_EQ(got.load_cycles, want.load_cycles);
    EXPECT_EQ(got.head_cycles, want.head_cycles);
    EXPECT_EQ(got.phase_cycles, want.phase_cycles);
    ASSERT_EQ(got.nt_units.size(), want.nt_units.size());
    for (std::size_t u = 0; u < got.nt_units.size(); ++u) {
        EXPECT_EQ(got.nt_units[u].busy, want.nt_units[u].busy) << "NT " << u;
        EXPECT_EQ(got.nt_units[u].idle, want.nt_units[u].idle) << "NT " << u;
    }
    ASSERT_EQ(got.mp_units.size(), want.mp_units.size());
    for (std::size_t m = 0; m < got.mp_units.size(); ++m) {
        EXPECT_EQ(got.mp_units[m].busy, want.mp_units[m].busy) << "MP " << m;
        EXPECT_EQ(got.mp_units[m].idle, want.mp_units[m].idle) << "MP " << m;
    }
    EXPECT_EQ(got.mp_edge_work, want.mp_edge_work);
    EXPECT_EQ(got.adapter_stall_cycles, want.adapter_stall_cycles);
    EXPECT_EQ(got.comm_cycles, want.comm_cycles);
    EXPECT_EQ(got.layer_comm_cycles, want.layer_comm_cycles);
    EXPECT_EQ(got.queue_peak_occupancy, want.queue_peak_occupancy);
    EXPECT_EQ(got.queue_total_pushes, want.queue_total_pushes);
    EXPECT_EQ(got.die_cycles, want.die_cycles);
    ASSERT_EQ(got.trace.size(), want.trace.size());
    for (std::size_t i = 0; i < got.trace.size(); ++i) {
        const TraceEvent &a = got.trace[i];
        const TraceEvent &b = want.trace[i];
        ASSERT_TRUE(a.kind == b.kind && a.unit == b.unit &&
                    a.node == b.node && a.start == b.start &&
                    a.end == b.end)
            << "trace event " << i;
    }
}

struct Shape {
    std::uint32_t pn, pe, pa, ps;
};

constexpr Shape kShapes[] = {{2, 4, 4, 8}, {1, 1, 3, 5}, {4, 8, 16, 4}};
constexpr std::size_t kDepths[] = {1, 2, 8};
constexpr PipelineMode kModes[] = {
    PipelineMode::kNonPipelined, PipelineMode::kFixedPipeline,
    PipelineMode::kBaselineDataflow, PipelineMode::kFlowGnn};

EngineConfig
make_cfg(const Shape &s, PipelineMode mode, std::size_t depth)
{
    EngineConfig c;
    c.p_node = s.pn;
    c.p_edge = s.pe;
    c.p_apply = s.pa;
    c.p_scatter = s.ps;
    c.mode = mode;
    c.queue_depth = depth;
    return c;
}

/** Hub 0 linked both ways to `leaves` leaves. */
CooGraph
make_star(NodeId leaves)
{
    CooGraph g;
    g.num_nodes = leaves + 1;
    for (NodeId v = 1; v <= leaves; ++v) {
        g.edges.push_back({0, v});
        g.edges.push_back({v, 0});
    }
    return g;
}

/** 12 nodes; only 0..3 are connected, the rest are isolated. */
CooGraph
make_mostly_isolated()
{
    CooGraph g;
    g.num_nodes = 12;
    g.edges = {{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 1}, {2, 0}};
    return g;
}

CooGraph
make_single_node()
{
    CooGraph g;
    g.num_nodes = 1;
    return g;
}

CooGraph
make_permuted_ba(NodeId n, std::uint64_t seed)
{
    Rng rng(seed);
    return permute_node_ids(make_barabasi_albert(n, 3, rng), rng);
}

struct NamedSample {
    std::string name;
    GraphSample sample;
};

/** The graph shapes of the sweep, with 6-dim nodes and 3-dim edges
 * (the HEP event keeps its own features). */
std::vector<NamedSample>
sweep_samples()
{
    std::vector<NamedSample> out;
    out.push_back({"hep", make_sample(DatasetKind::kHep, 3)});
    out.push_back(
        {"ba", make_random_sample(make_permuted_ba(60, 11), 6, 3, 1)});
    out.push_back({"star", make_random_sample(make_star(24), 6, 3, 2)});
    out.push_back(
        {"isolated", make_random_sample(make_mostly_isolated(), 6, 3, 3)});
    out.push_back(
        {"single", make_random_sample(make_single_node(), 6, 3, 4)});
    return out;
}

/** Engine vs the oracle for one model over the whole sweep. */
void
sweep_model(ModelKind kind)
{
    for (const NamedSample &ns : sweep_samples()) {
        const Model model =
            make_model(kind, ns.sample.node_dim(), ns.sample.edge_dim());
        const GraphSample prepared = model.prepare(ns.sample);
        for (const Shape &shape : kShapes)
            for (PipelineMode mode : kModes)
                for (std::size_t depth : kDepths)
                    for (bool trace : {false, true}) {
                        SCOPED_TRACE(ns.name + " " +
                                     pipeline_mode_name(mode) + " depth " +
                                     std::to_string(depth) + " shape " +
                                     std::to_string(shape.pn) + "," +
                                     std::to_string(shape.pe) + "," +
                                     std::to_string(shape.pa) + "," +
                                     std::to_string(shape.ps) +
                                     (trace ? " traced" : ""));
                        const EngineConfig cfg =
                            make_cfg(shape, mode, depth);
                        RunOptions opts;
                        opts.capture_trace = trace;
                        const RunResult r =
                            Engine(model, cfg).run(ns.sample, opts);
                        expect_same_stats(
                            r.stats,
                            naive_engine_stats(model, prepared, cfg, opts));
                        if (::testing::Test::HasFatalFailure())
                            return;
                    }
    }
}

TEST(PhaseModelOracle, GatMatchesEverywhere) { sweep_model(ModelKind::kGat); }

TEST(PhaseModelOracle, Gcn16MatchesEverywhere)
{
    sweep_model(ModelKind::kGcn16);
}

TEST(PhaseModelOracle, GinVirtualNodeMatchesEverywhere)
{
    sweep_model(ModelKind::kGinVn);
}

TEST(PhaseModelOracle, PnaWithEdgeFeaturesMatchesEverywhere)
{
    sweep_model(ModelKind::kPna);
}

TEST(PhaseModelOracle, GreedyBalancedBanksMatch)
{
    const GraphSample s =
        make_random_sample(make_permuted_ba(80, 21), 6, 0, 5);
    const Model model = make_model(ModelKind::kGcn16, 6, 0);
    EngineConfig cfg;
    cfg.bank_policy = BankPolicy::kGreedyBalanced;
    RunOptions opts;
    opts.capture_trace = true;
    expect_same_stats(Engine(model, cfg).run(s, opts).stats,
                      naive_engine_stats(model, model.prepare(s), cfg, opts));
}

TEST(PhaseModelOracle, ResumeAtEveryLayerBoundaryMatches)
{
    const GraphSample hep = make_sample(DatasetKind::kHep, 5);
    const GraphSample ba =
        make_random_sample(make_permuted_ba(50, 31), 6, 3, 6);
    for (ModelKind kind : {ModelKind::kGat, ModelKind::kGcn16,
                           ModelKind::kGinVn, ModelKind::kPna})
        for (const GraphSample *s : {&hep, &ba})
            for (PipelineMode mode :
                 {PipelineMode::kFixedPipeline, PipelineMode::kFlowGnn}) {
                SCOPED_TRACE(std::string(pipeline_mode_name(mode)));
                const Model model =
                    make_model(kind, s->node_dim(), s->edge_dim());
                const GraphSample prepared = model.prepare(*s);
                EngineConfig cfg;
                cfg.mode = mode;
                cfg.queue_depth = 2;
                RunOptions opts;
                opts.capture_trace = true;
                const Engine engine(model, cfg);
                RunWorkspace ws;
                LayerCheckpoint ckpt;
                RunResult r;
                std::size_t segments = 0;
                while (engine.run_resumable(SampleRef(prepared), opts, ws,
                                            ckpt, r, 1, 1) ==
                       SegmentOutcome::kPreempted)
                    ++segments;
                EXPECT_EQ(segments + 1, model.num_stages());
                expect_same_stats(
                    r.stats, naive_engine_stats(model, prepared, cfg, opts));
            }
}

TEST(PhaseModelOracle, GhostPerDieStatsMatchAtThreeDies)
{
    const GraphSample s =
        make_random_sample(make_permuted_ba(90, 41), 6, 0, 7);
    for (ModelKind kind : {ModelKind::kGcn16, ModelKind::kGat})
        for (PipelineMode mode :
             {PipelineMode::kNonPipelined, PipelineMode::kBaselineDataflow,
              PipelineMode::kFlowGnn}) {
            SCOPED_TRACE(std::string(pipeline_mode_name(mode)));
            const Model model = make_model(kind, 6, 0);
            const GraphSample prepared = model.prepare(s);
            ShardConfig shard;
            shard.num_shards = 3;
            shard.strategy = ShardStrategy::kFennel;
            GhostPlan plan = make_ghost_plan(model, prepared, shard);
            ASSERT_TRUE(plan.sharded);
            ASSERT_EQ(plan.shards.size(), 3u);
            const GhostPlan copy = plan;
            EngineConfig cfg;
            cfg.mode = mode;
            RunOptions opts;
            opts.capture_trace = true;
            const ShardedRunResult r = run_ghost_plan(
                model, cfg, prepared, std::move(plan), opts, shard.link);
            ASSERT_EQ(r.shards.size(), 3u);
            for (std::size_t d = 0; d < 3; ++d) {
                SCOPED_TRACE("die " + std::to_string(d));
                expect_same_stats(
                    r.shards[d].stats,
                    naive_ghost_die_stats(model, copy.shards[d], cfg, opts,
                                          prepared.node_dim(),
                                          prepared.edge_dim()));
            }
        }
}

TEST(PhaseModelRings, HugeQueueDepthMatchesAnUnfillableDepth)
{
    // 2^40 entries of storage per queue would not fit in memory; rings
    // are sized by the entries a phase actually pushes, so this runs
    // and prices exactly like a depth no queue of this graph can fill.
    const GraphSample s =
        make_random_sample(make_permuted_ba(120, 51), 6, 3, 8);
    for (ModelKind kind : {ModelKind::kGat, ModelKind::kGcn16})
        for (PipelineMode mode :
             {PipelineMode::kBaselineDataflow, PipelineMode::kFlowGnn}) {
            const Model model = make_model(kind, 6, 3);
            EngineConfig huge;
            huge.mode = mode;
            huge.queue_depth = std::size_t(1) << 40;
            EngineConfig unfillable = huge;
            unfillable.queue_depth = std::size_t(1) << 20;
            RunOptions opts;
            opts.capture_trace = true;
            const RunStats got = Engine(model, huge).run(s, opts).stats;
            expect_same_stats(got,
                              Engine(model, unfillable).run(s, opts).stats);
            expect_same_stats(got, naive_engine_stats(
                                       model, model.prepare(s), huge, opts));
            EXPECT_GT(got.queue_peak_occupancy, 1u);
        }
}

} // namespace
} // namespace flowgnn
