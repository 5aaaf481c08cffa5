/**
 * @file
 * google-benchmark microbenchmarks of the engine's primitive kernels:
 * row-block Linear forwards, aggregator folds, the GCN-16 column
 * gather, CSR construction from the streamed COO list, the src-major
 * CSC build, the FGNB payload checksum, timing-only pricing of whole
 * runs, sharded planning (partition and ghost plan), and whole-engine
 * runs.
 * These quantify simulator throughput (host-side), complementing the
 * modeled accelerator cycle counts.
 */
#include <benchmark/benchmark.h>

#include "core/engine.h"
#include "core/phase_model.h"
#include "datasets/dataset.h"
#include "ghost/ghost_plan.h"
#include "graph/generators.h"
#include "io/fgnb_layout.h"
#include "nn/aggregator.h"
#include "nn/gcn_layer.h"

namespace flowgnn {
namespace {

void
BM_LinearForwardRows(benchmark::State &state)
{
    // `rows` rows of a dim x dim layer per iteration: 1 row takes the
    // per-row loop, 8 rows two 4-row tiles that load each weight once.
    const auto dim = static_cast<std::size_t>(state.range(0));
    const auto rows = static_cast<std::size_t>(state.range(1));
    Rng rng(1);
    Linear lin(dim, dim);
    lin.init_glorot(rng);
    std::vector<float> x(rows * dim);
    for (float &v : x)
        v = static_cast<float>(rng.uniform(-1, 1));
    std::vector<float> out(rows * dim);
    for (auto _ : state) {
        lin.forward_rows(x.data(), out.data(), rows);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * rows * dim * dim);
}
BENCHMARK(BM_LinearForwardRows)
    ->ArgsProduct({{16, 64, 100}, {1, 8}});

void
BM_AggregatorFold(benchmark::State &state)
{
    // One 64-message column per iteration through fold_messages.
    auto kind = static_cast<AggregatorKind>(state.range(0));
    constexpr std::size_t kMessages = 64;
    Aggregator agg(kind, 100);
    std::vector<float> st(agg.state_dim());
    agg.init(st.data());
    Vec msg(100, 0.25f);
    for (auto _ : state) {
        fold_messages(agg, nullptr, st.data(), kMessages,
                      [&](std::size_t, float *out) {
                          std::copy(msg.begin(), msg.end(), out);
                      });
        benchmark::DoNotOptimize(st.data());
    }
    state.SetItemsProcessed(state.iterations() * kMessages);
}
BENCHMARK(BM_AggregatorFold)
    ->Arg(static_cast<int>(AggregatorKind::kSum))
    ->Arg(static_cast<int>(AggregatorKind::kPna));

void
BM_Gcn16ColumnGather(benchmark::State &state)
{
    // The functional kernel's per-edge cost: every destination's
    // GCN-16 gather over its src-major column, one thread; items are
    // edges.
    Rng rng(7);
    GraphSample s;
    s.graph = make_barabasi_albert(4096, 16, rng);
    s.node_features = gaussian_features(s.num_nodes(), 16, 7);
    const GcnLayer gcn(16, 16, Activation::kRelu, rng);
    const LayerContext ctx = make_layer_context(s, {}, 1);
    const CscGraph csc(s.graph, 1, CscOrder::kSrcMajor, false);
    const Aggregator agg = gcn.aggregator();
    std::vector<float> st(std::size_t(s.num_nodes()) * agg.state_dim());
    MessageInputs in;
    in.x = s.node_features.data();
    for (auto _ : state) {
        for (NodeId v = 0; v < s.num_nodes(); ++v) {
            float *row = st.data() + std::size_t(v) * agg.state_dim();
            agg.init(row);
            gcn.gather({v, csc.in_degree(v), csc.col_srcs(v), nullptr}, in,
                       ctx, row);
        }
        benchmark::DoNotOptimize(st.data());
    }
    state.SetItemsProcessed(state.iterations() * s.num_edges());
}
BENCHMARK(BM_Gcn16ColumnGather);

void
BM_CsrBuildFromStream(benchmark::State &state)
{
    GraphSample s = make_sample(DatasetKind::kHep, 0);
    for (auto _ : state) {
        CsrGraph csr(s.graph);
        benchmark::DoNotOptimize(csr.num_edges());
    }
    state.SetItemsProcessed(state.iterations() * s.num_edges());
}
BENCHMARK(BM_CsrBuildFromStream);

/** reddit-ghost's graph: the 1/16-scale Reddit-class BA graph
 * (14,560 nodes, m = 246, about 7.1M edges). */
const CooGraph &
reddit_ghost_graph()
{
    static const CooGraph g = [] {
        Rng rng(1);
        return make_barabasi_albert(232965 / 16, 246, rng);
    }();
    return g;
}

void
BM_PayloadChecksum(benchmark::State &state)
{
    // The FGNB payload check on reddit-ghost's file: its src/dst
    // columns (56.8 MB), format range(0) (2: one 64 MiB FNV-1a chunk,
    // 3: 1 MiB XXH64 chunks), at range(1) host threads.
    const CooGraph &g = reddit_ghost_graph();
    std::vector<std::uint32_t> payload(2 * g.num_edges());
    for (std::size_t i = 0; i < g.num_edges(); ++i) {
        payload[i] = g.edges[i].src;
        payload[g.num_edges() + i] = g.edges[i].dst;
    }
    const auto version = static_cast<std::uint32_t>(state.range(0));
    const auto threads = static_cast<unsigned>(state.range(1));
    const std::uint64_t bytes = payload.size() * sizeof(std::uint32_t);
    for (auto _ : state)
        benchmark::DoNotOptimize(io::fgnb_payload_checksum(
            version, payload.data(), bytes, threads));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PayloadChecksum)
    ->ArgsProduct({{2, 3}, {1, 3}})
    ->Unit(benchmark::kMillisecond);

void
BM_CscSrcMajor(benchmark::State &state)
{
    // The functional pass's in-adjacency on reddit-ghost's graph:
    // src-major CSC without edge ids, out-degrees read off the by-src
    // sort, at range(0) host threads.
    const GraphRef g(reddit_ghost_graph());
    const auto threads = static_cast<unsigned>(state.range(0));
    std::vector<std::uint32_t> out_deg;
    for (auto _ : state) {
        CscGraph csc(g, threads, CscOrder::kSrcMajor, false, &out_deg);
        benchmark::DoNotOptimize(csc.col_srcs(0));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_CscSrcMajor)->Arg(1)->Arg(3)->Unit(benchmark::kMillisecond);

void
BM_PriceRun(benchmark::State &state)
{
    // price_run alone (no functional pass) on the serving workloads'
    // shapes: 0 = a pool-mixed interactive job (GCN-16 on a 3,000-node
    // BA graph, m = 6), 1 = a hep-stream request (GAT on one HEP
    // event). Default engine config.
    const bool hep = state.range(0) == 1;
    GraphSample s;
    if (hep) {
        s = make_sample(DatasetKind::kHep, 0);
    } else {
        Rng rng(3);
        s.graph = make_barabasi_albert(3000, 6, rng);
        s.node_features = gaussian_features(s.num_nodes(), 64, 3);
    }
    const Model model =
        hep ? make_model(ModelKind::kGat, s.node_dim(), s.edge_dim())
            : make_model(ModelKind::kGcn16, 64, 0);
    const GraphSample prepared = model.prepare(s);
    const PricedGraph die{prepared.graph, prepared.num_nodes(), nullptr,
                          prepared.node_dim(), prepared.edge_dim()};
    PricingScratch scratch;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const RunStats stats =
            price_run(model, EngineConfig{}, RunOptions{}, die, 1, scratch);
        cycles = stats.total_cycles;
        benchmark::DoNotOptimize(cycles);
    }
    state.counters["modeled_cycles_per_s"] = benchmark::Counter(
        double(cycles), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PriceRun)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/** The graph pool-mixed's batch jobs plan: the 1/64-scale
 * Reddit-class BA graph (3,640 nodes, m = 246), GCN-16 features. */
const GraphSample &
batch_graph()
{
    static const GraphSample s = [] {
        Rng rng(7);
        GraphSample g;
        g.graph = make_barabasi_albert(232965 / 64, 246, rng);
        g.node_features = gaussian_features(g.num_nodes(), 64, 7);
        return g;
    }();
    return s;
}

/** Fennel + 3 restreams over range(0) dies, as the batch jobs plan. */
ShardConfig
batch_shard(const benchmark::State &state)
{
    ShardConfig cfg;
    cfg.num_shards = static_cast<std::uint32_t>(state.range(0));
    cfg.strategy = ShardStrategy::kFennel;
    cfg.restream_passes = 3;
    return cfg;
}

void
BM_ShardPlanAssignment(benchmark::State &state)
{
    // Partitioning alone (adjacency build + stream + restreams), at
    // range(1) host threads.
    const GraphSample &s = batch_graph();
    const ShardConfig cfg = batch_shard(state);
    const auto threads = static_cast<unsigned>(state.range(1));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            shard_plan_assignment(GraphRef(s.graph), cfg, threads));
    state.SetItemsProcessed(state.iterations() * s.num_edges());
}
BENCHMARK(BM_ShardPlanAssignment)
    ->ArgsProduct({{2, 3}, {1, 3}})
    ->Unit(benchmark::kMillisecond);

void
BM_MakeGhostPlan(benchmark::State &state)
{
    // The whole ghost plan: partitioning plus ghost sets, per-die
    // counts and the local-graph fill.
    const Model model = make_model(ModelKind::kGcn16, 64, 0);
    const GraphSample prepared = model.prepare(batch_graph());
    const ShardConfig cfg = batch_shard(state);
    const auto threads = static_cast<unsigned>(state.range(1));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            make_ghost_plan(model, SampleRef(prepared), cfg, threads));
    state.SetItemsProcessed(state.iterations() * prepared.num_edges());
}
BENCHMARK(BM_MakeGhostPlan)
    ->ArgsProduct({{2, 3}, {1, 3}})
    ->Unit(benchmark::kMillisecond);

void
BM_EngineMolHivGraph(benchmark::State &state)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 0);
    auto kind = static_cast<ModelKind>(state.range(0));
    Model model = make_model(kind, s.node_dim(), s.edge_dim());
    Engine engine(model, {});
    for (auto _ : state) {
        RunResult r = engine.run(s);
        benchmark::DoNotOptimize(r.stats.total_cycles);
    }
}
BENCHMARK(BM_EngineMolHivGraph)
    ->Arg(static_cast<int>(ModelKind::kGcn))
    ->Arg(static_cast<int>(ModelKind::kGin))
    ->Arg(static_cast<int>(ModelKind::kGat));

void
BM_ReferenceMolHivGraph(benchmark::State &state)
{
    GraphSample s = make_sample(DatasetKind::kMolHiv, 0);
    Model model = make_model(ModelKind::kGin, s.node_dim(), s.edge_dim());
    for (auto _ : state)
        benchmark::DoNotOptimize(model.predict(s));
}
BENCHMARK(BM_ReferenceMolHivGraph);

} // namespace
} // namespace flowgnn

BENCHMARK_MAIN();
