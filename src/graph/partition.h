/**
 * @file
 * Destination-bank assignment, workload-imbalance analysis, and
 * multi-die shard partitioning.
 *
 * FlowGNN assigns each edge to the MP unit that owns the edge's
 * destination node (dest_id % Pedge). Because this is a fixed modular
 * hash requiring zero pre-processing, workloads can be imbalanced;
 * Table VII of the paper quantifies this. This module implements the
 * assignment and the paper's imbalance metric.
 *
 * The same node-to-owner machinery generalizes one level up: a graph
 * too large for one die's buffers is split into shards, each owned by
 * one accelerator die. The shard-level helpers here provide the
 * assignment strategies and the cut metrics that predict inter-die
 * traffic (see src/ghost/ for the sharded executor).
 */
#ifndef FLOWGNN_GRAPH_PARTITION_H
#define FLOWGNN_GRAPH_PARTITION_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace flowgnn {

struct UndirectedCsr;

/** MP unit (bank) owning a destination node, given Pedge units.
 * Throws std::invalid_argument when p_edge is 0 — the public entry
 * point would otherwise divide by zero. */
inline std::uint32_t
dest_bank(NodeId dst, std::uint32_t p_edge)
{
    if (p_edge == 0)
        throw std::invalid_argument("dest_bank: p_edge must be > 0");
    return dst % p_edge;
}

/** Number of edges assigned to each of p_edge MP units. */
std::vector<std::size_t> bank_edge_counts(const CooGraph &graph,
                                          std::uint32_t p_edge);

/**
 * Paper Table VII imbalance metric: the largest difference in edge
 * workload between any two MP units, as a fraction of the total
 * workload (0 = perfectly balanced, 1 = one unit does everything).
 */
double workload_imbalance(const CooGraph &graph, std::uint32_t p_edge);

/** Same metric computed from precomputed per-bank counts. */
double workload_imbalance(const std::vector<std::size_t> &counts);

/**
 * Greedy least-loaded destination-bank assignment: nodes are visited
 * in decreasing in-degree order and each is placed on the currently
 * lightest bank.
 *
 * This requires a pre-pass over the edge list — exactly the kind of
 * pre-processing FlowGNN's modular hash avoids — and exists as the
 * ablation for the paper's stated future work on workload imbalance
 * (Sec. VI-E: "we will consider improvements in future work").
 *
 * The degree count runs on `threads` host cores (0 = all); the
 * greedy pass itself is serial, so the output is identical for every
 * thread count.
 *
 * @return bank id per node, each in [0, p_edge)
 */
std::vector<std::uint32_t>
balanced_bank_assignment(const GraphRef &graph, std::uint32_t p_edge,
                         unsigned threads = 0);

/** Per-bank edge counts under an explicit node->bank assignment. */
std::vector<std::size_t>
bank_edge_counts(const CooGraph &graph,
                 const std::vector<std::uint32_t> &assignment,
                 std::uint32_t p_edge);

// ---- Multi-die shard partitioning -------------------------------------

/**
 * How nodes are assigned to shards (dies) for multi-die execution.
 *
 * kModulo is the shard-level analogue of the destination-bank hash:
 * zero pre-processing, but oblivious to locality, so it cuts nearly
 * every edge on graphs whose node ids carry spatial meaning.
 * kContiguous assigns equal id ranges — the right default for graphs
 * whose ids follow a spatial or crawl order (point clouds, lattices,
 * citation crawls). kGreedyBalanced reuses the in-degree-balancing
 * greedy pass from balanced_bank_assignment at shard granularity: the
 * best per-die load balance, but locality-oblivious like kModulo.
 * kBfsContiguous renumbers nodes by undirected BFS order (restarting
 * from the lowest unvisited id per component) and splits the BFS
 * ranks contiguously — a locality-recovering strategy for graphs
 * whose node ids are meaningless: neighbors get nearby ranks, so the
 * contiguous split cuts only frontier edges. The BFS walks the
 * symmetrized *simple* adjacency (self-loops and parallel edges
 * deduplicated, see build_undirected_csr), so a multigraph partitions
 * exactly like its underlying simple graph.
 *
 * kLdg, kFennel, and kHdrf are the single-pass streaming vertex
 * partitioners (graph/streaming_partition.h) for power-law graphs,
 * where BFS ranks order poorly (a few hops reach everything): each
 * vertex is placed greedily by where its already-placed neighbors
 * went, under a hard per-shard capacity. kLdg uses a multiplicative
 * fill penalty, kFennel an additive alpha*|S|^gamma marginal cost
 * (usually the best cut on power-law graphs), kHdrf a degree-aware
 * pull that keeps low-degree tails together and cedes hub edges.
 *
 * Splitting strategies (kContiguous, kBfsContiguous) use balanced
 * ranges: shard sizes differ by at most one node, and when
 * num_shards > num_nodes exactly num_nodes shards own one node each
 * (the rest own nothing and are dropped by make_ghost_plan).
 */
enum class ShardStrategy {
    kModulo,
    kContiguous,
    kGreedyBalanced,
    kBfsContiguous,
    kLdg,
    kFennel,
    kHdrf,
};

/** Human-readable strategy name. */
const char *shard_strategy_name(ShardStrategy strategy);

/**
 * Inverse of shard_strategy_name (exact match, e.g. "fennel",
 * "bfs-contiguous"). Throws std::invalid_argument listing the valid
 * names — the parse entry point for --strategy command-line flags.
 */
ShardStrategy shard_strategy_from_name(const std::string &name);

/**
 * Node -> shard owner map, each entry in [0, num_shards), from any
 * edge view (an in-memory CooGraph or mmap-backed columns). Optional
 * knobs for the heavy strategies:
 *
 *  - `prior`: restreaming prior (Nishimura & Ugander). The streaming
 *    strategies (kLdg/kFennel/kHdrf) re-run with a previous pass's
 *    assignment feeding the scores of not-yet-re-placed neighbors, so
 *    every vertex is scored against its full neighborhood. Null = cold
 *    pass; non-streaming strategies ignore it and return the
 *    prior-free assignment.
 *  - `weight`: per-node weights >= 1 that the streaming strategies
 *    balance instead of the node count (streaming_partition.h). Null
 *    = 1 per node; non-streaming strategies ignore it.
 *  - `adj`: a prebuilt symmetrized simple adjacency
 *    (build_undirected_csr) consumed by kBfsContiguous and the
 *    streaming strategies. Callers that restream or compare
 *    strategies build it once instead of once per pass; null = built
 *    internally when needed.
 *  - `threads`: host cores for the internal adjacency/degree builds
 *    (0 = all). Output is identical for every value.
 */
std::vector<std::uint32_t>
shard_assignment(const GraphRef &graph, std::uint32_t num_shards,
                 ShardStrategy strategy,
                 const std::vector<std::uint32_t> *prior = nullptr,
                 const std::vector<std::uint32_t> *weight = nullptr,
                 const UndirectedCsr *adj = nullptr,
                 unsigned threads = 0);

/** Number of edges whose endpoints live on different shards,
 * counted on `threads` host cores (0 = all). */
std::size_t shard_cut_edges(const GraphRef &graph,
                            const std::vector<std::uint32_t> &assignment,
                            unsigned threads = 0);

/** Cut edges as a fraction of all edges (0 = no inter-die traffic). */
double shard_cut_fraction(const CooGraph &graph,
                          const std::vector<std::uint32_t> &assignment);

} // namespace flowgnn

#endif // FLOWGNN_GRAPH_PARTITION_H
