/**
 * @file
 * Multi-die shard-scaling study: modeled-cycle speedup of sharded
 * execution vs shard count on a large synthetic graph, per shard
 * strategy. This is the scale-out counterpart of the paper's
 * single-die latency experiments — the workload the paper defers in
 * Sec. VI-E (graphs far larger than one die's buffers).
 *
 *   ./bench_shard_scaling [--nodes N] [--model gcn16|gcn|gin]
 *                         [--json PATH] [--sweep-nodes N]
 *                         [--sweep-json PATH] [--no-sweep]
 *                         [--graph-file PATH] [--strategies a,b,..]
 *                         [--shards 1,2,4,8]
 *                         [--restream N] [--restream-json PATH]
 *
 * --json writes a machine-readable record of every point (consumed by
 * CI as a workflow artifact, so the bench trajectory is tracked).
 *
 * Every point reports the peak per-die resident footprint next to
 * cycles and replication, so the table shows both what sharding buys
 * in capacity and what it earns in modeled time. (The halo-vs-ghost
 * head-to-head that retired halo replication is
 * bench/results/halo_vs_ghost.txt.)
 *
 * --restream N applies N restreaming passes (Nishimura & Ugander) to
 * every streaming-partitioned point. The separate restreaming study
 * (always in synthetic mode, with --restream-json in file mode too)
 * sweeps pass count for LDG/Fennel/HDRF on a Barabási–Albert graph —
 * partition-only, no engine runs — and reports how the cut decays.
 *
 * --graph-file replaces the synthetic ring lattice with a graph
 * loaded from disk (FGNB binary / SNAP text / OGB CSV, see src/io) —
 * the path that runs the strategy sweep on real edge lists, including
 * the full-scale Reddit-class file written by flowgnn_make_reddit.
 * Since on-disk graphs are usually power-law, the default strategy
 * set switches to contiguous + fennel there; --strategies overrides
 * either default, and --shards trims the shard-count ladder.
 *
 * The second section is the strategy x graph-family sweep behind the
 * streaming partitioners: every ShardStrategy on a shuffled ring
 * (locality exists, ids are meaningless), a Barabási–Albert power-law
 * graph, and an R-MAT multigraph, at P in {4, 8}, reporting cut
 * fraction, load imbalance, replication, and modeled multi-die
 * latency. --sweep-json writes it as a separate machine-readable
 * artifact (also uploaded by CI).
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ghost/ghost_engine.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "io/load.h"
#include "tensor/rng.h"

namespace {

using namespace flowgnn;

GraphSample
make_workload(NodeId nodes, std::size_t node_dim)
{
    return bench::make_lattice_workload(nodes, node_dim, 0xB16B00);
}

struct Point {
    const char *strategy;
    std::uint32_t shards;
    std::uint64_t cycles;
    std::uint64_t comm_cycles;
    std::uint64_t resident_words; ///< peak per-die footprint
    double speedup;
    double cut_fraction;
    double replication;
};

/** Largest per-die resident footprint in one run's breakdown. */
std::uint64_t
peak_resident(const RunResult &r)
{
    std::uint64_t peak = 0;
    for (const ShardInfo &info : r.shards)
        peak = std::max(peak, info.resident_words);
    return peak;
}

struct SweepPoint {
    const char *strategy;
    std::uint32_t shards;
    double cut_fraction;
    double load_imbalance; ///< max owned / ideal share
    double replication;
    std::uint64_t cycles;
    std::uint64_t comm_cycles;
    double speedup; ///< vs the same graph on one die
};

struct SweepFamily {
    const char *family;
    GraphSample sample;
    std::uint64_t base_cycles = 0;
    std::vector<SweepPoint> points;
};

using bench::with_features;

/** Comma-separated list -> values, via one item parser. */
template <typename T, typename Parse>
std::vector<T>
parse_list(const char *arg, Parse parse)
{
    std::vector<T> out;
    std::string item;
    for (const char *p = arg;; ++p) {
        if (*p == ',' || *p == '\0') {
            if (!item.empty())
                out.push_back(parse(item));
            item.clear();
            if (*p == '\0')
                break;
        } else {
            item += *p;
        }
    }
    return out;
}

/** Most-loaded die's owned nodes over the ideal share, read from the
 * run's per-die breakdown (dropped empty slices own zero nodes and
 * cannot be the max). */
double
owned_imbalance(const RunResult &r, NodeId num_nodes,
                std::uint32_t shards)
{
    std::size_t max_owned = 0;
    for (const ShardInfo &info : r.shards)
        max_owned = std::max(max_owned, info.owned_nodes);
    return static_cast<double>(max_owned) /
           (static_cast<double>(num_nodes) / shards);
}

} // namespace

int
main(int argc, char **argv)
{
    NodeId nodes = 120000;
    NodeId sweep_nodes = 50000;
    bool run_sweep = true;
    std::string model_name_arg = "gcn16";
    std::string json_path;
    std::string sweep_json_path;
    std::string graph_file;
    std::string restream_json_path;
    std::uint32_t restream_passes = 0;
    std::vector<ShardStrategy> strategies;
    std::vector<std::uint32_t> shard_counts = {1, 2, 4, 8};
    for (int a = 1; a < argc; ++a) {
        if (!std::strcmp(argv[a], "--nodes") && a + 1 < argc)
            nodes = static_cast<NodeId>(std::atoll(argv[++a]));
        else if (!std::strcmp(argv[a], "--sweep-nodes") && a + 1 < argc)
            sweep_nodes = static_cast<NodeId>(std::atoll(argv[++a]));
        else if (!std::strcmp(argv[a], "--no-sweep"))
            run_sweep = false;
        else if (!std::strcmp(argv[a], "--model") && a + 1 < argc)
            model_name_arg = argv[++a];
        else if (!std::strcmp(argv[a], "--json") && a + 1 < argc)
            json_path = argv[++a];
        else if (!std::strcmp(argv[a], "--sweep-json") && a + 1 < argc)
            sweep_json_path = argv[++a];
        else if (!std::strcmp(argv[a], "--graph-file") && a + 1 < argc)
            graph_file = argv[++a];
        else if (!std::strcmp(argv[a], "--strategies") && a + 1 < argc) {
            try {
                strategies = parse_list<ShardStrategy>(
                    argv[++a], [](const std::string &s) {
                        return shard_strategy_from_name(s);
                    });
            } catch (const std::invalid_argument &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                return 1;
            }
        }
        else if (!std::strcmp(argv[a], "--shards") && a + 1 < argc)
            shard_counts = parse_list<std::uint32_t>(
                argv[++a], [](const std::string &s) {
                    return static_cast<std::uint32_t>(
                        std::atoll(s.c_str()));
                });
        else if (!std::strcmp(argv[a], "--restream") && a + 1 < argc)
            restream_passes = static_cast<std::uint32_t>(
                std::atoll(argv[++a]));
        else if (!std::strcmp(argv[a], "--restream-json") && a + 1 < argc)
            restream_json_path = argv[++a];
    }
    for (std::uint32_t shards : shard_counts)
        if (shards == 0) { // also what atoll turns a typo into
            std::fprintf(stderr,
                         "error: --shards entries must be >= 1\n");
            return 1;
        }
    // Ascending, so the P=1 baseline (when present) runs before the
    // points whose speedup is computed against it.
    std::sort(shard_counts.begin(), shard_counts.end());
    if (strategies.empty())
        strategies = graph_file.empty()
                         ? std::vector<ShardStrategy>{
                               ShardStrategy::kContiguous,
                               ShardStrategy::kModulo}
                         : std::vector<ShardStrategy>{
                               ShardStrategy::kContiguous,
                               ShardStrategy::kFennel};
    ModelKind kind = ModelKind::kGcn16;
    if (model_name_arg == "gcn")
        kind = ModelKind::kGcn;
    else if (model_name_arg == "gin")
        kind = ModelKind::kGin;

    constexpr std::size_t kNodeDim = 16;
    GraphSample sample;
    if (graph_file.empty()) {
        sample = make_workload(nodes, kNodeDim);
    } else {
        LoadOptions load;
        load.node_dim = kNodeDim;
        try {
            sample = load_graph_sample(graph_file, load);
        } catch (const GraphFileError &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }
    Model model = make_model(kind, kNodeDim, 0);

    bench::banner(
        "multi-die shard scaling",
        graph_file.empty()
            ? "Modeled cycles for one large graph split across P dies "
              "(ring lattice, k=2: ids carry locality). Contiguous "
              "shards cut only die boundaries; the modulo hash ignores "
              "locality and cuts nearly every edge — the cut "
              "metrics predict which one scales."
            : "Modeled cycles for one on-disk graph split across P "
              "dies. Loaded via flowgnn::io — the sharded stack runs "
              "against storage, not a generator.");
    if (!graph_file.empty())
        std::printf("graph file: %s\n", graph_file.c_str());
    std::printf("graph: %u nodes / %zu edges, model %s, %u exchanged "
                "layers\n\n",
                sample.graph.num_nodes, sample.num_edges(),
                model_name(kind), message_hops(model));

    std::printf("%-12s %7s %14s %12s %14s %9s %8s %8s\n", "strategy",
                "shards", "cycles", "comm", "resident", "speedup", "cut",
                "repl");
    bench::rule(89);

    std::vector<Point> points;
    for (ShardStrategy strategy : strategies) {
        std::uint64_t base_cycles = 0;
        for (std::uint32_t shards : shard_counts) {
            ShardConfig cfg;
            cfg.num_shards = shards;
            cfg.strategy = strategy;
            cfg.restream_passes = restream_passes;
            RunResult r = ShardedEngine(model, {}, cfg).run(sample);
            Point p;
            p.strategy = shard_strategy_name(strategy);
            p.shards = shards;
            p.cycles = r.stats.total_cycles;
            p.comm_cycles = r.stats.comm_cycles;
            p.resident_words = peak_resident(r);
            p.cut_fraction = // 0 for edgeless graphs, not NaN
                sample.num_edges() == 0
                    ? 0.0
                    : static_cast<double>(r.cut_edges) /
                          static_cast<double>(sample.num_edges());
            p.replication = r.replication_factor;
            if (shards == 1)
                base_cycles = p.cycles;
            // 0 when the --shards list omits the 1-die baseline.
            p.speedup = base_cycles == 0
                            ? 0.0
                            : static_cast<double>(base_cycles) /
                                  static_cast<double>(p.cycles);
            points.push_back(p);
            std::printf("%-12s %7u %14llu %12llu %14llu %8.2fx %8.3f "
                        "%8.3f\n",
                        p.strategy, p.shards,
                        static_cast<unsigned long long>(p.cycles),
                        static_cast<unsigned long long>(p.comm_cycles),
                        static_cast<unsigned long long>(p.resident_words),
                        p.speedup, p.cut_fraction, p.replication);
        }
        bench::rule(89);
    }

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        os << "{\n  \"bench\": \"shard_scaling\",\n"
           << "  \"graph\": \""
           << (graph_file.empty() ? "ring-lattice-k2" : graph_file)
           << "\",\n"
           << "  \"nodes\": " << sample.graph.num_nodes << ",\n"
           << "  \"edges\": " << sample.num_edges() << ",\n"
           << "  \"model\": \"" << model_name(kind) << "\",\n"
           << "  \"restream\": " << restream_passes << ",\n"
           << "  \"points\": [\n";
        for (std::size_t i = 0; i < points.size(); ++i) {
            const Point &p = points[i];
            os << "    {\"strategy\": \"" << p.strategy
               << "\", \"shards\": " << p.shards
               << ", \"cycles\": " << p.cycles
               << ", \"comm_cycles\": " << p.comm_cycles
               << ", \"resident_words\": " << p.resident_words
               << ", \"speedup\": " << p.speedup
               << ", \"cut_fraction\": " << p.cut_fraction
               << ", \"replication\": " << p.replication << "}"
               << (i + 1 < points.size() ? "," : "") << "\n";
        }
        os << "  ]\n}\n";
        std::printf("\nwrote %s\n", json_path.c_str());
    }

    // ---- Restreaming study: partition-only, so it is cheap even on
    // big files, but file mode still gates it behind --restream-json
    // (multi-pass Fennel over 10^8 edges is minutes, not seconds). ----
    if (graph_file.empty() || !restream_json_path.empty()) {
        bench::banner(
            "restreaming partitioners (Nishimura & Ugander)",
            "Re-running a streaming partitioner with the previous "
            "assignment as the tie-break prior lets early vertices see "
            "where their late neighbors landed. Cut fraction vs pass "
            "count for LDG/Fennel/HDRF at P = 8; pass 0 is the plain "
            "one-shot stream.");

        const CooGraph *restream_graph;
        CooGraph ba_graph;
        const char *restream_graph_name;
        if (graph_file.empty()) {
            Rng ba_rng(0xB16B01);
            ba_graph = make_barabasi_albert(sweep_nodes, 4, ba_rng);
            restream_graph = &ba_graph;
            restream_graph_name = "barabasi-albert";
        } else {
            restream_graph = &sample.graph;
            restream_graph_name = graph_file.c_str();
        }

        struct RestreamPoint {
            const char *strategy;
            std::uint32_t passes;
            double cut_fraction;
        };
        const ShardStrategy restream_strategies[] = {
            ShardStrategy::kLdg, ShardStrategy::kFennel,
            ShardStrategy::kHdrf};
        const std::size_t n_edges = restream_graph->edges.size();
        std::vector<RestreamPoint> restream_points;
        std::printf("graph: %s, %u nodes / %zu edges, P = 8\n\n",
                    restream_graph_name, restream_graph->num_nodes,
                    n_edges);
        std::printf("%-12s %7s %10s %10s\n", "strategy", "passes",
                    "cut", "vs pass0");
        bench::rule(44);
        for (ShardStrategy strategy : restream_strategies) {
            double pass0_cut = 0.0;
            for (std::uint32_t passes = 0; passes <= 3; ++passes) {
                ShardConfig cfg;
                cfg.num_shards = 8;
                cfg.strategy = strategy;
                cfg.restream_passes = passes;
                std::vector<std::uint32_t> assignment =
                    shard_plan_assignment(*restream_graph, cfg);
                RestreamPoint p;
                p.strategy = shard_strategy_name(strategy);
                p.passes = passes;
                p.cut_fraction =
                    n_edges == 0
                        ? 0.0
                        : static_cast<double>(shard_cut_edges(
                              *restream_graph, assignment)) /
                              static_cast<double>(n_edges);
                if (passes == 0)
                    pass0_cut = p.cut_fraction;
                restream_points.push_back(p);
                std::printf("%-12s %7u %10.4f %9.3fx\n", p.strategy,
                            p.passes, p.cut_fraction,
                            pass0_cut == 0.0
                                ? 1.0
                                : p.cut_fraction / pass0_cut);
            }
            bench::rule(44);
        }

        if (!restream_json_path.empty()) {
            std::ofstream os(restream_json_path);
            os << "{\n  \"bench\": \"restream\",\n"
               << "  \"graph\": \"" << restream_graph_name << "\",\n"
               << "  \"nodes\": " << restream_graph->num_nodes << ",\n"
               << "  \"edges\": " << n_edges << ",\n"
               << "  \"shards\": 8,\n  \"points\": [\n";
            for (std::size_t i = 0; i < restream_points.size(); ++i) {
                const RestreamPoint &p = restream_points[i];
                os << "    {\"strategy\": \"" << p.strategy
                   << "\", \"passes\": " << p.passes
                   << ", \"cut_fraction\": " << p.cut_fraction << "}"
                   << (i + 1 < restream_points.size() ? "," : "")
                   << "\n";
            }
            os << "  ]\n}\n";
            std::printf("\nwrote %s\n", restream_json_path.c_str());
        }
    }

    // The synthetic family sweep says nothing about an on-disk graph;
    // file mode is the scaling section only.
    if (!run_sweep || !graph_file.empty())
        return 0;

    // ---- Strategy x graph-family sweep ---------------------------------
    bench::banner(
        "shard-strategy x graph-family sweep",
        "Every ShardStrategy on three structural families at P = 4 "
        "and 8. On power-law graphs (Barabási–Albert, R-MAT) BFS "
        "ranks order poorly, so the streaming partitioners "
        "(LDG/Fennel/HDRF) must win the cut; on the shuffled ring "
        "BFS renumbering stays the right choice.");

    Rng family_rng(0xB16B00);
    std::vector<SweepFamily> families;
    {
        SweepFamily ring;
        ring.family = "ring-shuffled";
        ring.sample = with_features(
            permute_node_ids(make_ring_lattice(sweep_nodes, 2),
                             family_rng),
            kNodeDim, 0x5EE1);
        families.push_back(std::move(ring));

        SweepFamily ba;
        ba.family = "barabasi-albert";
        ba.sample = with_features(
            make_barabasi_albert(sweep_nodes, 4, family_rng), kNodeDim,
            0x5EE2);
        families.push_back(std::move(ba));

        NodeId rmat_nodes = 1;
        while (rmat_nodes < sweep_nodes)
            rmat_nodes <<= 1;
        SweepFamily rmat;
        rmat.family = "rmat";
        rmat.sample = with_features(
            make_rmat(rmat_nodes, std::size_t(rmat_nodes) * 8,
                      family_rng),
            kNodeDim, 0x5EE3);
        families.push_back(std::move(rmat));
    }

    const ShardStrategy sweep_strategies[] = {
        ShardStrategy::kModulo,        ShardStrategy::kContiguous,
        ShardStrategy::kGreedyBalanced, ShardStrategy::kBfsContiguous,
        ShardStrategy::kLdg,           ShardStrategy::kFennel,
        ShardStrategy::kHdrf,
    };
    const std::uint32_t sweep_shards[] = {4, 8};

    for (SweepFamily &family : families) {
        ShardConfig one;
        one.num_shards = 1;
        family.base_cycles = ShardedEngine(model, {}, one)
                                 .run(family.sample)
                                 .stats.total_cycles;

        std::printf("\n%s: %u nodes / %zu edges (1 die: %llu cycles)\n",
                    family.family, family.sample.graph.num_nodes,
                    family.sample.num_edges(),
                    static_cast<unsigned long long>(family.base_cycles));
        std::printf("%-16s %7s %8s %8s %8s %14s %12s %9s\n", "strategy",
                    "shards", "cut", "maxload", "repl", "cycles",
                    "comm", "speedup");
        bench::rule(90);
        for (std::uint32_t shards : sweep_shards) {
            for (ShardStrategy strategy : sweep_strategies) {
                ShardConfig cfg;
                cfg.num_shards = shards;
                cfg.strategy = strategy;
                RunResult r =
                    ShardedEngine(model, {}, cfg).run(family.sample);
                SweepPoint p;
                p.strategy = shard_strategy_name(strategy);
                p.shards = shards;
                p.cut_fraction =
                    static_cast<double>(r.cut_edges) /
                    static_cast<double>(family.sample.num_edges());
                p.load_imbalance = owned_imbalance(
                    r, family.sample.graph.num_nodes, shards);
                p.replication = r.replication_factor;
                p.cycles = r.stats.total_cycles;
                p.comm_cycles = r.stats.comm_cycles;
                p.speedup =
                    static_cast<double>(family.base_cycles) /
                    static_cast<double>(r.stats.total_cycles);
                family.points.push_back(p);
                std::printf(
                    "%-16s %7u %8.4f %8.3f %8.3f %14llu %12llu %8.2fx\n",
                    p.strategy, p.shards, p.cut_fraction,
                    p.load_imbalance, p.replication,
                    static_cast<unsigned long long>(p.cycles),
                    static_cast<unsigned long long>(p.comm_cycles),
                    p.speedup);
            }
            bench::rule(90);
        }
    }

    if (!sweep_json_path.empty()) {
        std::ofstream os(sweep_json_path);
        os << "{\n  \"bench\": \"shard_strategy_sweep\",\n"
           << "  \"model\": \"" << model_name(kind) << "\",\n"
           << "  \"families\": [\n";
        for (std::size_t f = 0; f < families.size(); ++f) {
            const SweepFamily &family = families[f];
            os << "    {\"family\": \"" << family.family
               << "\", \"nodes\": " << family.sample.graph.num_nodes
               << ", \"edges\": " << family.sample.num_edges()
               << ", \"base_cycles\": " << family.base_cycles
               << ",\n     \"points\": [\n";
            for (std::size_t i = 0; i < family.points.size(); ++i) {
                const SweepPoint &p = family.points[i];
                os << "      {\"strategy\": \"" << p.strategy
                   << "\", \"shards\": " << p.shards
                   << ", \"cut_fraction\": " << p.cut_fraction
                   << ", \"load_imbalance\": " << p.load_imbalance
                   << ", \"replication\": " << p.replication
                   << ", \"cycles\": " << p.cycles
                   << ", \"comm_cycles\": " << p.comm_cycles
                   << ", \"speedup\": " << p.speedup << "}"
                   << (i + 1 < family.points.size() ? "," : "") << "\n";
            }
            os << "     ]}" << (f + 1 < families.size() ? "," : "")
               << "\n";
        }
        os << "  ]\n}\n";
        std::printf("\nwrote %s\n", sweep_json_path.c_str());
    }
    return 0;
}
