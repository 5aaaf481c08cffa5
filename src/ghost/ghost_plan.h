/**
 * @file
 * Planning for per-layer boundary-exchange ("ghost") sharded execution,
 * the one sharded mode.
 *
 * The plan gives each die only its 0-hop subgraph plus a one-deep
 * *ghost fringe*: the boundary vertices whose embeddings the die must
 * receive from their owners before every message-passing layer (the
 * Dorylus-style scatter). Per-die state stays ~n/P and the link
 * carries per-layer traffic sized by the cut. (Replicating each die's
 * L-hop closure instead would need no mid-run traffic, but on
 * power-law graphs the closure approaches the whole graph;
 * bench/results/halo_vs_ghost.txt has the head-to-head that retired
 * that mode.)
 *
 * Definitions (die d, assignment a):
 * - ghost set of d  = { src of edge (src -> dst) : a[dst] == d,
 *   a[src] != d } — the in-boundary, fixed across layers. Ascending
 *   global id order, the order ghost embeddings are merged in — the
 *   property that keeps single-NT-unit ghost runs bit-identical to
 *   unsharded runs.
 * - local graph of d = the edges whose *destination* is owned by d
 *   (both endpoints are then locals = owned + ghosts), global edge
 *   order preserved, endpoints remapped to local ids.
 * - An exchange precedes every scatter-bearing stage. Payload per
 *   ghost vertex: for a conv scatter, the stage's post-transform
 *   output (out_dim words — the ghost copy just re-streams it, the
 *   same zero-cost-accumulate mechanism as the GAT re-stream round);
 *   for a GAT stage, the stage's *input* embedding (in_dim words — the
 *   ghost copy pays the projection locally, which is cheaper than
 *   shipping per-edge attention traffic). The first exchange
 *   additionally carries each ghost's bootstrap metadata (id + two
 *   true degrees + the DGN field scalar when present).
 * - Per-exchange link cycles on die d:
 *   ceil(max(send_d, recv_d) / words_per_cycle) + latency_cycles —
 *   send and receive streams run full duplex; a die with no boundary
 *   traffic at a stage pays nothing.
 *
 * Quantization: embeddings cross the link in the die's fixed-point
 * wire format, so a boundary crossing re-quantizes. The engine's
 * quantize is idempotent — every shipped embedding is already exactly
 * representable — so re-quantization is value-preserving and the
 * functional result is shard-count-invariant (measured in
 * bench_precision_ablation).
 */
#ifndef FLOWGNN_GHOST_GHOST_PLAN_H
#define FLOWGNN_GHOST_GHOST_PLAN_H

#include <cstdint>
#include <vector>

#include "shard/shard_plan.h"

namespace flowgnn {

/** One die's share of a ghost-exchange job. */
struct GhostShard {
    /** Locals = owned + ghost vertices, ascending global ids. */
    std::vector<NodeId> locals;
    /** Parallel to `locals`: 1 if the vertex is owned by this die. */
    std::vector<std::uint8_t> is_owned;
    /** Die-local subgraph: every edge into an owned destination,
     * endpoints remapped to `locals` indices, global order kept. */
    CooGraph local_graph;
    /** Link cycles of the exchange feeding each stage (index =
     * stage/phase index; 0 for stages without an exchange). */
    std::vector<std::uint64_t> layer_comm_cycles;
    /** Owned/ghost counts, exchange words, comm totals, resident
     * footprint, and later the die's stats. */
    ShardInfo info;
};

/** The execution recipe for one graph across P dies in ghost mode. */
struct GhostPlan {
    /** False: single-die fallback (num_shards == 1, virtual-node
     * models, empty graphs) — executors run the full sample. */
    bool sharded = false;
    std::vector<GhostShard> shards; ///< >= 1: the effective P
    std::vector<std::uint32_t> assignment; ///< node -> owner die
    std::size_t cut_edges = 0;
    /** Mean copies per vertex: (owned + ghosts summed over dies) / n. */
    double replication_factor = 1.0;
    /** Per stage: 1 if a boundary exchange precedes its phase (the
     * stage carries a scatter and the partition has a cut). */
    std::vector<std::uint8_t> exchange_at_stage;
    /** Per stage: words shipped per ghost vertex in that exchange
     * (0 for stages without one). */
    std::vector<std::uint32_t> exchange_dim;
};

/**
 * Plans one prepared sample across `config.num_shards` dies in ghost
 * mode, partitioned by shard_plan_assignment (restreaming included).
 * One shard, virtual-node models, and empty graphs yield a non-sharded
 * plan with one bookkeeping entry; dies owning no vertices are
 * dropped, so shards.size() is the effective P.
 */
GhostPlan make_ghost_plan(const Model &model, const GraphSample &prepared,
                          const ShardConfig &config);

/**
 * SampleRef overload, the canonical planner: plans straight off a
 * borrowed view (io::GraphView::sample), so ghost-sharding a full-scale
 * mmap-backed graph never materializes an in-memory GraphSample.
 * `threads` parallelizes the host-side stages — partitioning's
 * adjacency build, the ghost-membership edge scan (per-thread flag
 * bitmaps OR-merged), the per-die locals extraction, and the
 * local-graph fill (a counting sort by owning die that preserves
 * global edge order) — with plans bit-identical to the serial planner
 * for every thread count (0 = all cores).
 */
GhostPlan make_ghost_plan(const Model &model, const SampleRef &prepared,
                          const ShardConfig &config, unsigned threads = 0);

} // namespace flowgnn

#endif // FLOWGNN_GHOST_GHOST_PLAN_H
