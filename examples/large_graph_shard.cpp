/**
 * @file
 * Sharded execution walkthrough: one service, two graph scales.
 *
 * One PoolScheduler serves both: the caller routes small graphs (a
 * molecule from the MolHIV generator) to one-die jobs and a 100k-node
 * point-cloud-like lattice to a multi-die sharded job —
 * the workload the paper defers to future work (Sec. VI-E). The
 * example also runs the ShardedEngine directly to show the per-die
 * breakdown and verifies sharded == unsharded embeddings.
 *
 *   ./large_graph_shard [--graph-file PATH] [--shards P]
 *                       [--strategy NAME]
 *
 * With --graph-file the synthetic walkthrough is replaced by the
 * disk-backed one: the graph is loaded via flowgnn::io (FGNB binary /
 * SNAP text / OGB CSV), sharded across P dies (default 8, default
 * strategy fennel — the right family for power-law graphs like the
 * full-scale Reddit-class file from flowgnn_make_reddit), and the
 * sharded embeddings are verified BIT-IDENTICAL against a single-die
 * in-memory run of the same loaded graph (exit 1 on any mismatch;
 * see src/ghost/ghost_engine.h for the exactness contract).
 */
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <string>

#include "datasets/dataset.h"
#include "ghost/ghost_engine.h"
#include "graph/generators.h"
#include "io/load.h"
#include "pool/scheduler.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

using namespace flowgnn;

namespace {

/** The disk-backed walkthrough: sharded-from-file vs in-memory. */
int
run_from_file(const std::string &path, std::uint32_t shards,
              ShardStrategy strategy)
{
    constexpr std::size_t kNodeDim = 16;
    LoadOptions load;
    load.node_dim = kNodeDim;
    std::printf("loading %s...\n", path.c_str());
    GraphSample sample;
    try {
        sample = load_graph_sample(path, load);
    } catch (const GraphFileError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::printf("loaded: %u nodes / %zu edges, node_dim %zu\n",
                sample.num_nodes(), sample.num_edges(),
                sample.node_dim());

    Model model = make_model(ModelKind::kGcn16, sample.node_dim(), 0);
    EngineConfig engine_cfg;
    engine_cfg.p_node = 1; // single NT unit: bit-exact sharding
    ShardConfig shard_cfg;
    shard_cfg.num_shards = shards;
    shard_cfg.strategy = strategy;

    std::printf("sharded run: P=%u, %s, %u exchanged layers...\n",
                shards, shard_strategy_name(strategy),
                message_hops(model));
    ShardedEngine sharded(model, engine_cfg, shard_cfg);
    RunResult r = sharded.run(sample);
    for (const ShardInfo &info : r.shards)
        std::printf("  die %u: %7zu owned + %7zu ghost nodes, "
                    "%9zu edges, %10llu compute + %8llu comm cycles\n",
                    info.shard, info.owned_nodes, info.ghost_nodes,
                    info.subgraph_edges,
                    static_cast<unsigned long long>(
                        info.stats.total_cycles),
                    static_cast<unsigned long long>(info.comm_cycles));
    std::printf("cut %.4f, replication %.3f, composed %llu cycles\n",
                sample.num_edges() == 0
                    ? 0.0
                    : static_cast<double>(r.cut_edges) /
                          static_cast<double>(sample.num_edges()),
                r.replication_factor,
                static_cast<unsigned long long>(r.stats.total_cycles));

    std::printf("in-memory single-die run for comparison...\n");
    Engine single(model, engine_cfg);
    RunResult reference = single.run(sample);

    float diff = max_abs_diff(r.embeddings, reference.embeddings);
    std::printf("sharded-from-disk vs in-memory: max |diff| = %g "
                "(prediction %g vs %g), speedup %.2fx\n",
                diff, r.prediction, reference.prediction,
                static_cast<double>(reference.stats.total_cycles) /
                    static_cast<double>(r.stats.total_cycles));
    if (diff != 0.0f || r.prediction != reference.prediction) {
        std::fprintf(stderr,
                     "FAIL: sharded run is not bit-identical\n");
        return 1;
    }
    std::printf("OK: bit-identical\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string graph_file;
    std::uint32_t file_shards = 8;
    ShardStrategy file_strategy = ShardStrategy::kFennel;
    for (int a = 1; a < argc; ++a) {
        if (!std::strcmp(argv[a], "--graph-file") && a + 1 < argc)
            graph_file = argv[++a];
        else if (!std::strcmp(argv[a], "--shards") && a + 1 < argc)
            file_shards = static_cast<std::uint32_t>(
                std::atoll(argv[++a]));
        else if (!std::strcmp(argv[a], "--strategy") && a + 1 < argc) {
            try {
                file_strategy = shard_strategy_from_name(argv[++a]);
            } catch (const std::invalid_argument &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                return 1;
            }
        }
    }
    if (file_shards == 0) { // also what atoll turns a typo into
        std::fprintf(stderr, "error: --shards must be >= 1\n");
        return 1;
    }
    if (!graph_file.empty())
        return run_from_file(graph_file, file_shards, file_strategy);
    constexpr NodeId kLargeNodes = 100000;
    constexpr std::size_t kNodeDim = 16;

    // One model serves both scales (GCN-16: the Table VIII config).
    Model model = make_model(ModelKind::kGcn16, kNodeDim, 0);

    GraphSample large;
    large.graph = make_ring_lattice(kLargeNodes, 2);
    Rng rng(7);
    large.node_features = Matrix(kLargeNodes, kNodeDim);
    for (std::size_t r = 0; r < kLargeNodes; ++r)
        for (std::size_t c = 0; c < kNodeDim; ++c)
            large.node_features(r, c) =
                static_cast<float>(rng.normal(0.0, 0.5));

    GraphSample small;
    small.graph = make_molecule(24, rng);
    small.node_features = Matrix(24, kNodeDim);
    for (std::size_t r = 0; r < 24; ++r)
        for (std::size_t c = 0; c < kNodeDim; ++c)
            small.node_features(r, c) =
                static_cast<float>(rng.normal(0.0, 0.5));

    // ---- One die pool, size-based routing by the caller ----
    // A graph under the threshold runs whole on one die, a larger one
    // shards; both kinds share the pool's dies.
    constexpr std::size_t kShardThresholdNodes = 4096;
    static_assert(kLargeNodes >= kShardThresholdNodes);
    ShardConfig shard_cfg;
    shard_cfg.num_shards = 4;
    shard_cfg.strategy = ShardStrategy::kContiguous;
    PoolConfig pool_cfg;
    pool_cfg.num_dies = 4;
    pool_cfg.policy = PoolPolicy::kSpaceShare;
    PoolScheduler pool(model, {}, pool_cfg);

    auto small_future = pool.submit(small);
    auto large_future = pool.submit_sharded(large, shard_cfg);
    RunResult small_result = small_future.get();
    RunResult large_result = large_future.get();

    PoolStats st = pool.stats();
    std::printf("routing: %zu graph(s) on the fast path, %zu sharded "
                "(peak %zu/%zu dies busy)\n",
                st.fast.completed, st.sharded.completed,
                st.peak_busy_dies, pool.num_dies());
    std::printf("small graph:  %5u nodes -> %8llu cycles (%.3f ms)\n",
                small.num_nodes(),
                static_cast<unsigned long long>(
                    small_result.stats.total_cycles),
                small_result.latency_ms());
    std::printf("large graph: %5u nodes -> %8llu cycles (%.3f ms), "
                "%llu comm cycles\n\n",
                large.num_nodes(),
                static_cast<unsigned long long>(
                    large_result.stats.total_cycles),
                large_result.latency_ms(),
                static_cast<unsigned long long>(
                    large_result.stats.comm_cycles));

    // ---- Per-die breakdown + equivalence check ----
    ShardedEngine sharded(model, {}, shard_cfg);
    RunResult r = sharded.run(large);
    std::printf("per-die breakdown (%s, %u exchanged layers, "
                "cut %.3f, replication %.3f):\n",
                shard_strategy_name(shard_cfg.strategy),
                message_hops(model),
                static_cast<double>(r.cut_edges) /
                    static_cast<double>(large.num_edges()),
                r.replication_factor);
    for (const ShardInfo &info : r.shards)
        std::printf("  die %u: %6zu owned + %3zu ghost nodes, "
                    "%7zu edges, %8llu compute + %5llu comm cycles\n",
                    info.shard, info.owned_nodes, info.ghost_nodes,
                    info.subgraph_edges,
                    static_cast<unsigned long long>(
                        info.stats.total_cycles),
                    static_cast<unsigned long long>(info.comm_cycles));

    Engine single(model, {});
    RunResult reference = single.run(large);
    std::printf("\nsharded vs single engine: max |diff| = %g, "
                "speedup %.2fx\n",
                max_abs_diff(r.embeddings, reference.embeddings),
                static_cast<double>(reference.stats.total_cycles) /
                    static_cast<double>(r.stats.total_cycles));

    // ---- Picking a strategy for a power-law graph ----
    // The lattice above has locality-carrying ids, so kContiguous is
    // free and right. A citation/social graph is the opposite regime:
    // BFS ranks order poorly (a few hops reach everything) and the
    // streaming partitioners earn their keep. The cut metrics are
    // cheap — measure before committing to a strategy; no call site
    // other than the ShardConfig changes.
    Rng prng(0x50C1A1);
    CooGraph powerlaw = make_barabasi_albert(30000, 4, prng);
    std::printf("\npower-law graph (%u nodes): cut fraction at P=4\n",
                powerlaw.num_nodes);
    ShardStrategy pick = ShardStrategy::kContiguous;
    double best_cut = 1.0;
    for (ShardStrategy s :
         {ShardStrategy::kContiguous, ShardStrategy::kBfsContiguous,
          ShardStrategy::kLdg, ShardStrategy::kFennel,
          ShardStrategy::kHdrf}) {
        double cut = shard_cut_fraction(
            powerlaw, shard_assignment(powerlaw, 4, s));
        std::printf("  %-16s %.3f\n", shard_strategy_name(s), cut);
        if (cut < best_cut) {
            best_cut = cut;
            pick = s;
        }
    }
    std::printf("picked %s; every shard consumer (ShardedEngine, "
                "pool jobs) takes it via ShardConfig\n",
                shard_strategy_name(pick));
    return 0;
}
