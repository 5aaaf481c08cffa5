/**
 * @file
 * Single-pass streaming vertex partitioners for power-law graphs.
 *
 * kBfsContiguous recovers locality by walking the graph, which works
 * when the graph *has* a walkable geometry (rings, lattices, meshes).
 * Power-law graphs (citation/social networks, R-MAT) do not: a BFS
 * frontier reaches most of the graph within a few hops, so contiguous
 * BFS ranks cut nearly as many edges as a random split. The streaming
 * partitioner family — one pass over the vertices, each placed by a
 * greedy score over the partitions its already-placed neighbors chose
 * — is the standard answer (Stanton & Kliot's LDG, Tsourakakis et
 * al.'s Fennel, and a vertex-partitioning transplant of HDRF's
 * degree-aware intuition).
 *
 * All three stream vertices in ascending id order (the arrival order
 * of the COO stream), are fully deterministic, and run in
 * O(E + V * P). They are exposed through ShardStrategy::{kLdg,
 * kFennel, kHdrf} so every shard consumer (make_ghost_plan,
 * ShardedEngine, pool jobs) picks them up with zero
 * call-site changes.
 *
 * Balance: every balance quantity counts vertex *weight*. With
 * weights w_v (null = 1 per vertex) a partition's load is
 * W_p = sum of its vertices' weights, W the total and the ideal share
 * ceil(W/P). A partition takes a vertex only while W_p is below the
 * hard capacity max(ideal, ceil(balance_slack * ideal)) (default slack
 * 1.1, i.e. 10% over the ideal share), so no partition ever exceeds
 * it by more than one vertex's weight, whatever the greedy scores
 * prefer. A null weight gives the node-count assignments bit for
 * bit. The ghost planner (shard_plan_assignment)
 * passes w_v = 1 + in-degree(v): every edge is priced on the die that
 * owns its destination, so a die's modeled time follows the in-edges
 * it owns, not its node count. The partitioners always emit P
 * non-empty-capable labels, but on degenerate inputs (n < P, heavy
 * clustering at tiny n) some partitions may end up owning nothing —
 * downstream, make_ghost_plan drops such empty dies and
 * plan.shards.size() becomes the effective P (see ghost/ghost_plan.h).
 *
 * Restreaming (Nishimura & Ugander): each partitioner accepts an
 * optional `prior` assignment from an earlier pass. While streaming,
 * a neighbor not yet re-placed in the current pass contributes its
 * prior partition to the scores — so every vertex sees its *full*
 * neighborhood instead of only the prefix streamed before it. A
 * handful of passes over the same stream order shrink the cut in
 * practice, though not at every pass: on the 50k BA graph of
 * bench/results/restream_ba.json, weighted LDG's first pass raises it
 * and the next two cut it below the cold pass. Loads and capacities count current-pass placements only,
 * exactly as in a cold pass, so the weighted capacity holds after
 * every pass. A pass reads the labels placed earlier in the same
 * pass, so it stays serial: a pass that read only the previous
 * pass's labels could not enforce the capacity.
 */
#ifndef FLOWGNN_GRAPH_STREAMING_PARTITION_H
#define FLOWGNN_GRAPH_STREAMING_PARTITION_H

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace flowgnn {

/**
 * Symmetrized, deduplicated adjacency: each pair of distinct nodes
 * with at least one edge between them (either direction, any
 * multiplicity) appears exactly once in each endpoint's neighbor
 * list; self-loops are dropped. Neighbor lists keep first-occurrence
 * order (the order the edge stream first mentions each pair), so
 * consumers that iterate them — BFS renumbering, the streaming
 * scores — behave identically on a multigraph and on its underlying
 * simple graph. degree(v) is therefore the number of *distinct*
 * neighbors, the quantity the degree-aware scores need (a parallel
 * edge must not count a neighbor twice).
 */
struct UndirectedCsr {
    std::vector<std::size_t> offsets; ///< size num_nodes + 1
    IdColumn nbr;

    NodeId
    num_nodes() const
    {
        return offsets.empty()
            ? 0
            : static_cast<NodeId>(offsets.size() - 1);
    }

    std::size_t row_begin(NodeId v) const { return offsets[v]; }
    std::size_t row_end(NodeId v) const { return offsets[v + 1]; }

    /** Number of distinct neighbors (self excluded). */
    std::uint32_t
    degree(NodeId v) const
    {
        return static_cast<std::uint32_t>(row_end(v) - row_begin(v));
    }
};

/**
 * Builds the symmetrized simple adjacency of a (multi)graph from any
 * edge view — an in-memory CooGraph or mmap-backed FGNB columns —
 * parallelized across host cores (threads 0 = all): per-thread-range
 * symmetrized counts with a prefix-sum merge in thread order, a
 * parallel stable fill into the unzeroed list, then an in-place
 * dedupe: each row block (about equal entry counts) compacts its rows
 * toward its own start, and one move per block closes the gaps. The
 * list is never copied and keeps its pre-dedupe capacity.
 * Bit-identical to the serial build for every thread count.
 *
 * A non-null `in_degrees` also receives every node's in-degree as
 * GraphRef::in_degrees counts it (self-loops and parallel edges
 * included), read off the same count pass instead of a pass of its
 * own.
 */
UndirectedCsr
build_undirected_csr(const GraphRef &graph, unsigned threads = 0,
                     std::vector<std::uint32_t> *in_degrees = nullptr);

/** Tuning knobs shared by the streaming partitioners. Defaults follow
 * the literature; shard_assignment uses them as-is. */
struct StreamingPartitionConfig {
    /**
     * Hard per-partition capacity as a multiple of the ideal share
     * ceil(W/P) of the total vertex weight W (Fennel's nu). A
     * partition takes a vertex only while its load is below
     * ceil(slack * ceil(W/P)), bounding load imbalance regardless of
     * what the greedy scores prefer.
     */
    double balance_slack = 1.1;
    /** Fennel cost exponent gamma in alpha * |S|^gamma. */
    double fennel_gamma = 1.5;
    /** Weight of the HDRF balance term against its neighbor score. */
    double hdrf_lambda = 1.0;
};

/**
 * Linear Deterministic Greedy (Stanton & Kliot): place v on the
 * partition maximizing |N(v) ∩ S_p| * (1 - W_p / C) with
 * C = ceil(W/P) (W_p = |S_p| and C = ceil(n/P) for unit weights).
 * The multiplicative penalty interpolates between pure
 * neighbor-chasing (empty partitions) and pure balancing (full ones).
 * Ties break to the least-loaded, then lowest-index partition,
 * so neighborless vertices (including every vertex of an edgeless
 * graph) spread round-robin instead of collapsing onto partition 0.
 *
 * Every partitioner takes the adjacency from build_undirected_csr:
 * the stream itself is serial, and callers that restream
 * (shard_plan_assignment) or try several strategies build the
 * adjacency once (possibly in parallel, possibly from an mmap view)
 * and pass it to every pass. `weight` holds one weight >= 1 per
 * vertex (null = 1 each; see the balance paragraph above); a zero
 * weight or a size mismatch throws std::invalid_argument.
 *
 * @return partition id per node, each in [0, num_partitions)
 */
std::vector<std::uint32_t>
ldg_partition(const UndirectedCsr &adj, std::uint32_t num_partitions,
              const StreamingPartitionConfig &config = {},
              const std::vector<std::uint32_t> *prior = nullptr,
              const std::vector<std::uint32_t> *weight = nullptr);

/**
 * Fennel (Tsourakakis et al.): place v on the partition maximizing
 * |N(v) ∩ S_p| - alpha * gamma * w_v * W_p^(gamma-1), the marginal
 * gain of the interpolated objective (edges cut + alpha * sum
 * W_p^gamma) with the standard alpha = m * P^(gamma-1) / W^gamma
 * (|S_p| and n for unit weights). Compared to LDG's hard
 * interpolation, the additive penalty lets a partition keep
 * attracting a vertex with many neighbors there even when slightly
 * over the ideal share — usually the best cut of the family on
 * power-law graphs.
 */
std::vector<std::uint32_t>
fennel_partition(const UndirectedCsr &adj, std::uint32_t num_partitions,
                 const StreamingPartitionConfig &config = {},
                 const std::vector<std::uint32_t> *prior = nullptr,
                 const std::vector<std::uint32_t> *weight = nullptr);

/**
 * Degree-aware greedy in the spirit of HDRF (Petroni et al.). HDRF is
 * an edge partitioner that prefers replicating its highest-degree
 * endpoint (hubs are replicated anyway; tails are not). Transplanted
 * to vertex placement: a neighbor u already on partition p pulls v
 * with weight 2 - d(u) / (d(u) + d(v)) — low-degree neighbors pull
 * harder than hubs, keeping tail clusters intact while hub edges
 * (which some partition must cut regardless) are ceded — plus
 * lambda * (maxload - load_p) / (1 + maxload - minload), HDRF's
 * normalized balance term over the weighted loads. Degrees are
 * distinct-neighbor counts (see UndirectedCsr), so multi-edges do
 * not inflate a hub's pull.
 */
std::vector<std::uint32_t>
hdrf_partition(const UndirectedCsr &adj, std::uint32_t num_partitions,
               const StreamingPartitionConfig &config = {},
               const std::vector<std::uint32_t> *prior = nullptr,
               const std::vector<std::uint32_t> *weight = nullptr);

} // namespace flowgnn

#endif // FLOWGNN_GRAPH_STREAMING_PARTITION_H
