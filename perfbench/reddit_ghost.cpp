/**
 * @file
 * reddit-ghost: the large-graph path, closed loop, one graph at a
 * time. Set-up writes a 1/16-scale Reddit-class Barabási–Albert graph
 * as an FGNB v2 file; every iteration runs io::GraphView open ->
 * gaussian_features -> make_ghost_plan -> run_ghost_plan (GCN-16,
 * ghost mode, P=3, fennel + 3 restream passes, threads = cores).
 */
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "graph/generators.h"
#include "io/graph_file.h"

namespace perfbench {

using namespace flowgnn;

namespace {

/** Table IV Reddit at 1/16 scale, BA m = round(avg degree / 2). */
constexpr NodeId kNodes = 232965 / 16;
constexpr std::uint32_t kAttach = 246;
constexpr NodeId kTinyNodes = 1200;
constexpr std::uint32_t kTinyAttach = 20;
constexpr std::size_t kFeatureDim = 16;
constexpr std::uint32_t kShards = 3;
constexpr std::uint32_t kRestream = 3;
/** A graph slower than this, open -> result, misses its limit: three
 * times the ~2 s a graph took on a 4-vCPU x86 host, frozen here. With
 * one graph in flight and ~12 per run, a limit inside the spread of
 * graph times would read in steps of 1/12; this one counts stalls and
 * failures only. */
constexpr double kGraphLimitS = 3.0 * 2.0;
/** The traced run must attribute at least this share of the graph
 * span to the named layer spans. */
constexpr double kMinAttributedShare = 0.95;
constexpr int kSetupReps = 3;

} // namespace

void
run_reddit_ghost(const Options &opt, Spans &spans, Report &report)
{
    const unsigned threads = opt.cores;
    const NodeId nodes = opt.tiny ? kTinyNodes : kNodes;
    const std::uint32_t attach = opt.tiny ? kTinyAttach : kAttach;
    const std::uint64_t graph_seed = derive_seed(opt.seed, 1);
    const std::uint64_t feature_seed = derive_seed(opt.seed, 2);
    const Model model = make_model(ModelKind::kGcn16, kFeatureDim, 0);
    const std::string path =
        opt.work_dir + "/reddit-ghost-" + std::to_string(opt.seed) + ".fgnb";

    // ---- set-up: FGNB write + reference embeddings, kSetupReps times
    std::vector<double> setup_s;
    Matrix want;
    float want_pred = 0.0f;
    GraphSample kept; // the in-memory graph, for the traced probes
    std::uint64_t digest = 0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto t0 = Clock::now();
        Rng rng(graph_seed);
        GraphSample s;
        s.graph = make_barabasi_albert(nodes, attach, rng);
        s.node_features = gaussian_features(nodes, 0, feature_seed);
        GraphFile::save(path, s, {.threads = threads});
        s.node_features = gaussian_features(nodes, kFeatureDim, feature_seed);
        const GraphSample prepared = model.prepare(s);
        want = model.reference_embeddings(prepared);
        want_pred = model.head()
                        .forward(model.global_pool(want, prepared.pool_nodes()))
                        .at(0);
        setup_s.push_back(seconds_since(t0));
        digest = io::fnv1a64(s.graph.edges.data(),
                             s.graph.edges.size() * sizeof(Edge));
        if (rep + 1 == kSetupReps && opt.trace)
            kept = std::move(s);
    }

    ChainInput in;
    in.model = &model;
    in.fgnb_path = path;
    in.feature_dim = kFeatureDim;
    in.feature_seed = feature_seed;
    in.shard.num_shards = kShards;
    in.shard.strategy = ShardStrategy::kFennel;
    in.shard.mode = ShardMode::kGhostExchange;
    in.shard.restream_passes = kRestream;
    in.threads = threads;

    // Warm-up pass (page cache, allocator), not measured.
    {
        Spans quiet(nullptr);
        run_chain(in, quiet);
    }

    // ---- measured closed loop ----
    std::vector<double> latency_s;
    std::vector<double> cycles;
    std::vector<double> mem_plan_mb;
    std::vector<double> mem_run_mb;
    std::size_t within_limit = 0;
    ChainOutput last;
    const auto start = Clock::now();
    Clock::time_point due = start;
    do {
        spans.record("loadgen.lag", spans.to_ns(due), spans.now_ns());
        ChainOutput out =
            run_chain(in, spans, spans.on() ? &mem_plan_mb : nullptr,
                      spans.on() ? &mem_run_mb : nullptr);
        ++report.attempted;
        const ShardedRunResult &r = out.result;
        bool ok = r.embeddings == want && r.prediction == want_pred;
        if (!latency_s.empty())
            ok = ok && r.stats.total_cycles == last.result.stats.total_cycles &&
                 r.cut_edges == last.result.cut_edges;
        if (!ok)
            ++report.failed;
        else if (out.seconds <= kGraphLimitS)
            ++within_limit;
        latency_s.push_back(out.seconds);
        cycles.push_back(double(r.stats.total_cycles));
        last = std::move(out);
        due = Clock::now(); // the single client sends on each result
    } while (seconds_since(start) < opt.seconds);

    report.e2e("setup_s", median(setup_s), "s");
    // Closed loop, one client: latency_ms_p50 is graph_s_p50 in ms.
    report.e2e("graph_s_p50", median(latency_s), "s");
    report.e2e("latency_ms_p50", median(latency_s) * 1e3, "ms");
    report.e2e("goodput", double(within_limit) / double(report.attempted),
               "ratio");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    report.e2e("modeled_cycles_mean", mean(cycles), "cycles");

    report.note("nodes", double(nodes));
    report.note("edges", double(last.edges));
    report.note("threads", double(threads));
    report.note("shards", double(kShards));
    report.note("setup_reps", double(kSetupReps));
    report.note("graphs", double(latency_s.size()));
    report.note("latency_samples", double(latency_s.size()));
    report.note("latency_ms_p90", percentile(latency_s, 0.90) * 1e3);
    report.note("graph_limit_s", kGraphLimitS);
    report.note("input_digest", double(digest >> 11));

    if (spans.on()) {
        const double share = chain_layer_metrics(in, spans, last, mem_plan_mb,
                                                 mem_run_mb, report);
        if (share < kMinAttributedShare)
            throw std::runtime_error(
                "named layer spans cover " + std::to_string(share) +
                " of the graph span, below " +
                std::to_string(kMinAttributedShare));
        report.layer("loadgen.lag_ms_p99",
                     percentile(spans.seconds("loadgen.lag"), 0.99) * 1e3,
                     "ms");
        // Layers this workload bypasses, called directly on its graph.
        const std::vector<GraphSample> one{kept};
        const std::vector<float> one_want{want_pred};
        const std::vector<double> run_s =
            probe_engine(model, one, spans, report);
        ShardConfig batch = in.shard;
        batch.num_shards = 2;
        const std::size_t wrong =
            probe_serve(model, one, one_want, run_s, 1, spans, report) +
            probe_pool(model, one, one_want, kept, want_pred, batch, 3,
                       spans, report);
        report.attempted += 3;
        report.failed += wrong;
    }
    std::filesystem::remove(path);
}

} // namespace perfbench
