/**
 * @file
 * The shapes shared by every sharded run: the inter-die link model and
 * the scale-out config, plus the node -> die assignment a plan shards
 * by. A sharded run returns the Engine's RunResult, whose ShardInfo
 * entries (core/engine.h) hold the per-die breakdown. Planning and
 * execution live in src/ghost (make_ghost_plan / run_ghost_plan, and
 * ShardedEngine, which chains them for one job on all its dies).
 *
 * Units: every *_cycles field below is kernel cycles at the die's
 * configured clock (EngineConfig::clock_mhz); every *_words field is
 * 4-byte words. Effective P: a plan may hold fewer dies than
 * ShardConfig::num_shards requested (dies owning no vertex are
 * dropped, e.g. n < P); GhostPlan::shards.size() is the authoritative
 * effective P, and every downstream layer (the composed
 * RunStats::die_cycles, pool die leases) agrees with it.
 */
#ifndef FLOWGNN_SHARD_SHARD_PLAN_H
#define FLOWGNN_SHARD_SHARD_PLAN_H

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/engine.h"
#include "graph/partition.h"

namespace flowgnn {

/** Inter-die link model (point-to-point, per die). */
struct LinkConfig {
    /** Words (4-byte) transferred per kernel cycle. Deliberately a
     * fraction of the 64 words/cycle HBM ingest the engine models:
     * die-to-die serial links are narrower than local memory. */
    std::uint32_t words_per_cycle = 16;
    /** Fixed per-transfer latency (link setup + flight time), in
     * kernel cycles at the die clock. */
    std::uint64_t latency_cycles = 500;
    /**
     * Overlap each boundary exchange with the compute window of the
     * phase it feeds instead of serializing it in front of that phase
     * (see compose_shard_stats). Off by default: the conservative
     * model where every transfer finishes before its phase starts.
     */
    bool overlap = false;

    void
    validate() const
    {
        if (words_per_cycle == 0)
            throw std::invalid_argument(
                "LinkConfig: words_per_cycle must be >= 1");
    }
};

/**
 * How shards cooperate across layers. kGhostExchange is the only mode:
 * each die keeps its 0-hop subgraph plus a one-deep ghost fringe and
 * exchanges boundary embeddings over the link before every
 * message-passing layer (the Dorylus-style scatter), so per-die state
 * stays ~n/P.
 */
enum class ShardMode {
    kGhostExchange,
};

/** Scale-out shape of a sharded job. */
struct ShardConfig {
    /** Number of dies. 1 degenerates to single-engine execution. */
    std::uint32_t num_shards = 2;
    ShardStrategy strategy = ShardStrategy::kContiguous;
    /** Read by nothing: ghost exchange is the only mode. Kept only
     * because the repository benchmark (perfbench/) assigns it. */
    ShardMode mode = ShardMode::kGhostExchange;
    LinkConfig link{};
    /** Extra restreaming passes for the streaming partitioners
     * (LDG/Fennel/HDRF): each pass re-runs the stream with the
     * previous assignment as prior (Nishimura & Ugander), typically
     * shrinking the cut. Ignored by non-streaming strategies. */
    std::uint32_t restream_passes = 0;

    void
    validate() const
    {
        if (num_shards == 0)
            throw std::invalid_argument(
                "ShardConfig: num_shards must be >= 1");
        link.validate();
    }
};

/** Kept only because the repository benchmark (perfbench/) names it:
 * a sharded run returns a RunResult (core/engine.h), whose `shards`
 * hold the per-die breakdown. */
using ShardedRunResult = RunResult;

/**
 * The model's message-passing depth: how many stages consume neighbor
 * state, i.e. how many hops an owned node's receptive field spans.
 */
std::uint32_t message_hops(const Model &model);

/**
 * The node -> shard assignment a plan for `config` would use:
 * shard_assignment under the configured strategy, plus
 * `config.restream_passes` prior-seeded restreaming refinement passes
 * for the streaming strategies; the assignment make_ghost_plan
 * shards by. For the adjacency-driven strategies (LDG/Fennel/HDRF/BFS)
 * the undirected CSR is built once and reused across every
 * restreaming pass. The streaming strategies balance the vertex
 * weight 1 + in-degree(v), counted in the same build: a die prices
 * every edge whose destination it owns, so its modeled time follows
 * those edges rather than its node count. Assignments are
 * bit-identical for every thread count (0 = all cores).
 */
std::vector<std::uint32_t> shard_plan_assignment(const GraphRef &graph,
                                                 const ShardConfig &config,
                                                 unsigned threads = 0);

} // namespace flowgnn

#endif // FLOWGNN_SHARD_SHARD_PLAN_H
