/**
 * @file
 * Timing exactness of the phase model against the frozen per-cycle
 * oracle (testing::naive_run_phase and its stage loop): every RunStats
 * field, trace events included, must match with tracing on and off,
 * across pipeline modes, queue depths, unit shapes, models and graph
 * shapes; through Engine resume at every layer boundary; per die of
 * ghost-exchange runs; through resumed one-die fallback plans; on
 * benchmark-scale graphs whose phases run long hub entries and deep
 * stalls; and phase by phase on random phase descriptions. Also pins that ring storage follows the phase's traffic, not
 * a user-set queue depth, and that no stage beats the roofline floor
 * of its NT and MP parallelism.
 */
#include <gtest/gtest.h>

#include <string>

#include "core/engine.h"
#include "core/phase_model.h"
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
                    naive_ghost_die_stats(model, copy, d, cfg, opts,
                                          prepared.node_dim(),
                                          prepared.edge_dim()));
            }
        }
}

TEST(PhaseModelOracle, GhostFallbackPlansResumeLikeTheEngine)
{
    // One shard, or a virtual node: the plan runs whole on one die.
    // Resumed one stage per segment, it prices and computes exactly
    // what an uninterrupted engine run does.
    const GraphSample s =
        make_random_sample(make_permuted_ba(50, 31), 6, 3, 6);
    for (ModelKind kind : {ModelKind::kGcn16, ModelKind::kGinVn})
        for (PipelineMode mode :
             {PipelineMode::kFixedPipeline, PipelineMode::kFlowGnn}) {
            SCOPED_TRACE(std::string(pipeline_mode_name(mode)));
            const Model model = make_model(kind, 6, 3);
            const GraphSample prepared = model.prepare(s);
            ShardConfig shard;
            shard.num_shards = kind == ModelKind::kGinVn ? 3 : 1;
            const GhostPlan plan = make_ghost_plan(model, prepared, shard);
            ASSERT_FALSE(plan.sharded);
            EngineConfig cfg;
            cfg.mode = mode;
            cfg.queue_depth = 2;
            RunOptions opts;
            opts.capture_trace = true;
            LayerCheckpoint ckpt;
            ShardedRunResult r;
            std::size_t segments = 0;
            while (run_ghost_plan(model, cfg, SampleRef(prepared), plan,
                                  opts, shard.link, ckpt, r, 1, 1) ==
                   SegmentOutcome::kPreempted)
                ++segments;
            EXPECT_EQ(segments + 1, model.num_stages());
            expect_same_stats(
                r.stats, naive_engine_stats(model, prepared, cfg, opts));
            RunWorkspace ws;
            const RunResult want =
                Engine(model, cfg).run_prepared(prepared, opts, ws);
            EXPECT_TRUE(r.embeddings == want.embeddings);
            EXPECT_EQ(r.prediction, want.prediction);
        }
}

TEST(PhaseModelOracle, BenchmarkScaleGraphsMatch)
{
    // The sweep's graphs are too small for the regime the serving
    // workloads price: hub entries hundreds of cycles long and ports
    // stalled behind them for many cycles at a time.
    Rng rng(71);
    const GraphSample ba =
        make_random_sample(make_barabasi_albert(3000, 6, rng), 64, 0, 9);
    const GraphSample star = make_random_sample(make_star(2000), 64, 0, 10);
    for (ModelKind kind : {ModelKind::kGcn16, ModelKind::kGat})
        for (const GraphSample *s : {&ba, &star}) {
            const Model model = make_model(kind, 64, 0);
            const GraphSample prepared = model.prepare(*s);
            for (PipelineMode mode :
                 {PipelineMode::kBaselineDataflow, PipelineMode::kFlowGnn})
                for (std::size_t depth : {1, 8})
                    for (bool trace : {false, true}) {
                        SCOPED_TRACE(std::string(model_name(kind)) + " " +
                                     std::to_string(s->num_nodes()) +
                                     " nodes " + pipeline_mode_name(mode) +
                                     " depth " + std::to_string(depth) +
                                     (trace ? " traced" : ""));
                        EngineConfig cfg;
                        cfg.mode = mode;
                        cfg.queue_depth = depth;
                        RunOptions opts;
                        opts.capture_trace = trace;
                        PricingScratch scratch;
                        const RunStats got = price_run(
                            model, cfg, opts,
                            {prepared.graph, prepared.num_nodes(), nullptr,
                             prepared.node_dim(), prepared.edge_dim()},
                            1, scratch);
                        expect_same_stats(got, naive_engine_stats(
                                                   model, prepared, cfg,
                                                   opts));
                        if (::testing::Test::HasFatalFailure())
                            return;
                    }
        }
}

TEST(PhaseModelOracle, RandomPhaseWorksMatch)
{
    // run_phase straight against naive_run_phase on phases no model
    // produces: any width (0 included), zero-cost and mixed owner/ghost
    // accumulates, sinks, hub entries and odd unit shapes.
    for (std::uint64_t it = 0; it < 600; ++it) {
        Rng r(1000 + it);
        EngineConfig cfg;
        cfg.p_node = 1 + std::uint32_t(r.uniform_index(5));
        cfg.p_edge = 1 + std::uint32_t(r.uniform_index(8));
        cfg.p_apply = 1 + std::uint32_t(r.uniform_index(24));
        cfg.p_scatter = 1 + std::uint32_t(r.uniform_index(24));
        cfg.queue_depth = 1 + r.uniform_index(12);
        cfg.mode = r.uniform_index(2) ? PipelineMode::kFlowGnn
                                      : PipelineMode::kBaselineDataflow;
        const auto n = NodeId(r.uniform_index(it % 5 == 0 ? 400 : 60));
        const auto max_edges =
            std::uint32_t(1 + r.uniform_index(it % 4 == 0 ? 300 : 12));
        std::vector<std::vector<BankWork>> banks(n);
        std::vector<std::uint8_t> owned(n);
        for (NodeId v = 0; v < n; ++v) {
            owned[v] = r.uniform_index(3) != 0;
            for (std::uint32_t b = 0; b < cfg.p_edge; ++b)
                if (r.uniform_index(3) != 0)
                    banks[v].push_back(
                        {b, std::uint32_t(1 + r.uniform_index(max_edges))});
        }
        PhaseWork w;
        w.n_nodes = n;
        w.acc_owned = r.uniform_index(40);
        w.acc_ghost = r.uniform_index(2) ? 0 : r.uniform_index(40);
        w.is_owned = r.uniform_index(2) ? owned.data() : nullptr;
        w.stream_elems = r.uniform_index(10) == 0
                             ? 0
                             : std::uint32_t(1 + r.uniform_index(80));
        w.has_scatter = r.uniform_index(4) != 0;
        w.expansion = 1 + std::uint32_t(r.uniform_index(4));
        w.banks = &banks;
        testing::NaivePhaseWork naive;
        naive.n_nodes = n;
        for (NodeId v = 0; v < n; ++v)
            naive.acc_cycles.push_back(w.acc_of(v));
        naive.stream_elems = w.stream_elems;
        naive.has_scatter = w.has_scatter;
        naive.expansion = w.expansion;
        naive.banks = &banks;
        RunOptions opts;
        opts.capture_trace = r.uniform_index(2) != 0;
        const std::uint64_t base = r.uniform_index(1000);
        auto fresh = [&] {
            RunStats s;
            s.clock_mhz = cfg.clock_mhz;
            s.nt_units.assign(cfg.p_node, {});
            s.mp_units.assign(cfg.p_edge, {});
            s.mp_edge_work.assign(cfg.p_edge, 0);
            return s;
        };
        RunStats got = fresh();
        RunStats want = fresh();
        SCOPED_TRACE("phase " + std::to_string(it));
        EXPECT_EQ(run_phase({w, cfg, opts, got, base}),
                  testing::naive_run_phase(naive, cfg, opts, want, base));
        expect_same_stats(got, want);
        if (::testing::Test::HasFailure())
            return;
    }
}

/**
 * The roofline floor of stage s, derived from the model alone: every
 * node's input-stationary passes run on one of Pnode NT units, and
 * every edge-granule of a scatter round on one of Pedge MP units, so
 * no phase is shorter than either share. A GAT stage runs two scatter
 * rounds, the first of them alongside its accumulates.
 */
std::uint64_t
stage_floor(const Model &model, std::size_t s, const GraphSample &prepared,
            const EngineConfig &cfg)
{
    const Layer &stage = model.stage(s);
    std::uint64_t acc = 0;
    for (std::size_t d : stage.nt_pass_dims())
        acc += ceil_div_u64(d, cfg.p_apply);
    const std::uint64_t nt =
        ceil_div_u64(acc * prepared.num_nodes(), cfg.p_node);
    std::uint64_t expansion = 0;
    const bool gat = stage.dataflow() == DataflowKind::kMpToNt;
    if (gat) {
        expansion = 1;
    } else if (s + 1 < model.num_stages()) {
        const Layer &next = model.stage(s + 1);
        if (next.msg_dim() > 0 && next.dataflow() == DataflowKind::kNtToMp)
            expansion = ceil_div_u64(next.msg_dim(), stage.out_dim());
    }
    const std::uint64_t mp = ceil_div_u64(
        prepared.num_edges() * ceil_div_u64(stage.out_dim(), cfg.p_scatter) *
            expansion,
        cfg.p_edge);
    return std::max(nt, mp) + (gat ? mp : 0);
}

TEST(PhaseModelRoofline, NoStageBeatsItsParallelism)
{
    // Checked against the model and graph only, never against the
    // oracle, so a pricer and an oracle that drift together still
    // cannot under-count.
    const GraphSample hep = make_sample(DatasetKind::kHep, 3);
    const GraphSample ba =
        make_random_sample(make_permuted_ba(600, 61), 6, 3, 11);
    std::size_t rows = 0;
    for (ModelKind kind :
         {ModelKind::kGin, ModelKind::kGinVn, ModelKind::kGcn, ModelKind::kGat,
          ModelKind::kPna, ModelKind::kDgn, ModelKind::kGcn16})
        for (const GraphSample *s : {&hep, &ba}) {
            const Model model =
                make_model(kind, s->node_dim(), s->edge_dim());
            const GraphSample prepared = model.prepare(*s);
            for (const Shape &shape : kShapes)
                for (PipelineMode mode : kModes)
                    for (std::size_t depth : {1, 8}) {
                        const EngineConfig cfg =
                            make_cfg(shape, mode, depth);
                        PricingScratch scratch;
                        const RunStats stats = price_run(
                            model, cfg, RunOptions{},
                            {prepared.graph, prepared.num_nodes(), nullptr,
                             prepared.node_dim(), prepared.edge_dim()},
                            1, scratch);
                        for (std::size_t st = 0; st < model.num_stages();
                             ++st, ++rows)
                            EXPECT_GE(stats.phase_cycles[st],
                                      stage_floor(model, st, prepared, cfg))
                                << model_name(kind) << " stage " << st
                                << " " << pipeline_mode_name(mode)
                                << " depth " << depth << " shape "
                                << shape.pn << "," << shape.pe << ","
                                << shape.pa << "," << shape.ps;
                    }
        }
    EXPECT_GT(rows, 1000u);
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
