/**
 * @file
 * The engine's phase-timing machinery, factored out of Engine so other
 * executors can drive it. A pipeline phase is described by PhaseWork —
 * node count, NT accumulate cost, output stream width, and the
 * destination-bank split of the scatter — and run_phase() prices it
 * under any of the four PipelineModes. Pricing is purely structural:
 * values come from the functional kernel (core/functional.h), and no
 * phase ever touches an embedding.
 *
 * price_run() is the one public pricing call: input DMA, the bank map,
 * every stage and the tail of one die's whole run. Engine calls it over
 * the whole graph once a run completes; the ghost-exchange executor
 * (src/ghost) calls it per die, where accumulate costs differ between
 * owned nodes (full NT work) and ghost nodes (zero-cost re-stream of an
 * embedding received over the inter-die link — the same mechanism the
 * GAT re-stream round uses). Keeping the timing model in one place is
 * what guarantees a die of the ghost executor prices the same work the
 * way an unsharded engine does.
 *
 * build_stage_schedule() derives the per-stage cost constants
 * (accumulate passes, stream width, scatter expansion) from a model +
 * engine config; price_run() reads its cost numbers from it.
 *
 * The cost of pricing follows the phase's state changes, not its
 * modeled cycles: each unit is visited only at cycles where its own
 * state changes, with the cycles in between added in bulk; queues are
 * fixed ring buffers; and a phase equal to an earlier one of the same
 * run replays its recorded statistics (docs/DESIGN.md, "Timing model:
 * phase simulator"). None of it changes a RunStats field.
 */
#ifndef FLOWGNN_CORE_PHASE_MODEL_H
#define FLOWGNN_CORE_PHASE_MODEL_H

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/stats.h"
#include "graph/graph.h"
#include "nn/model.h"

namespace flowgnn {

inline std::uint64_t
ceil_div_u64(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** Per-node destination-bank workload: (bank id, edges in bank). */
struct BankWork {
    std::uint32_t bank;
    std::uint32_t edges;
};

/**
 * Static description of one pipeline phase's work, independent of the
 * pipeline mode and of every value. Compared by value: within one run
 * (fixed banks and owner mask) equal PhaseWorks price identically.
 */
struct PhaseWork {
    NodeId n_nodes = 0;
    /** NT accumulate cycles (all input-stationary passes) of an owned
     * node and of a ghost node. */
    std::uint64_t acc_owned = 0;
    std::uint64_t acc_ghost = 0;
    /** Per node: nonzero if owned. Borrowed; null means all owned. */
    const std::uint8_t *is_owned = nullptr;
    /** Elements streamed out per node (the stage's output dim). */
    std::uint32_t stream_elems = 0;
    bool has_scatter = false;
    /** Extra MP cycles per granule per edge (msg wider than stream). */
    std::uint32_t expansion = 1;
    /** Destination-bank split per node (empty if no out-edges). */
    const std::vector<std::vector<BankWork>> *banks = nullptr;

    /** NT accumulate cycles of node n. */
    std::uint64_t
    acc_of(NodeId n) const
    {
        return is_owned == nullptr || is_owned[n] != 0 ? acc_owned
                                                       : acc_ghost;
    }

    bool operator==(const PhaseWork &) const = default;
};

/** Everything shared by the timing back-ends for one phase. */
struct PhaseEnv {
    const PhaseWork &work;
    const EngineConfig &cfg;
    const RunOptions &opts;
    RunStats &stats;
    std::uint64_t base_cycle = 0; ///< absolute offset for trace events
};

/**
 * Prices one phase under env.cfg.mode (event-driven simulation for
 * the queue-based modes, closed-form for the analytic ones) and
 * returns its cycle count. env.stats must have nt_units/mp_units/
 * mp_edge_work sized to the config's p_node/p_edge before the call.
 */
std::uint64_t run_phase(const PhaseEnv &env);

/**
 * The per-stage cost constants of one model on one engine config —
 * everything about a stage's timing that does not depend on the graph.
 * Indices mirror Model::stage(i).
 */
struct StageSchedule {
    bool is_gat = false; ///< MP-to-NT attention stage (2 MP rounds)
    /** The phase runs a scatter: this GAT stage's own gather rounds,
     * or the next NT-to-MP conv's message pass fused into this phase. */
    bool has_scatter = false;
    /** Extra NT pass charged for materializing the previous GAT
     * stage's combine, in cycles. */
    std::uint64_t prologue_cycles = 0;
    /** Aggregate-finalize pass for a non-sum aggregator, in cycles. */
    std::uint64_t finalize_cycles = 0;
    /** The stage's own input-stationary FC passes, in cycles. */
    std::uint64_t nt_pass_cycles = 0;
    /** Full per-node NT accumulate: prologue + finalize + FC passes. */
    std::uint64_t acc_cycles = 0;
    /** Elements streamed out per node (the stage's output dim). */
    std::uint32_t stream_elems = 0;
    /** MP cycles per granule per edge (message wider than stream). */
    std::uint32_t expansion = 1;
};

/** Derives the per-stage schedule of `model` on `cfg` (see above). */
std::vector<StageSchedule> build_stage_schedule(const Model &model,
                                                const EngineConfig &cfg);

/**
 * The graph one die prices, fixed for a whole run. Scatter phases run
 * over all of `graph`'s nodes (owned and ghost); node-local phases and
 * the GAT epilogue over `n_owned` only. A single-die run has
 * n_owned == graph.num_nodes() and no owner mask.
 */
struct PricedGraph {
    GraphRef graph;
    NodeId n_owned = 0;
    /** Per node: nonzero if owned (borrowed; null = all owned). */
    const std::uint8_t *is_owned = nullptr;
    /** Feature widths of the die's input records (load DMA). */
    std::size_t node_dim = 0;
    std::size_t edge_dim = 0;
};

/**
 * Graph-sized pricing buffers (the node -> MP-bank map and the
 * destination-bank split of every node's out-edges). Resized, never
 * shrunk, so a workspace that keeps one across runs stops allocating
 * them per graph. Not thread-safe: one scratch per concurrent call.
 */
struct PricingScratch {
    std::vector<std::uint32_t> bank_of;
    std::vector<std::vector<BankWork>> banks;
};

/**
 * Prices one die's whole run of `model`: input DMA (owned records and
 * edges, one id word per ghost slot), the bank policy's map, one phase
 * per stage and two for GAT (the second re-streams the projections at
 * zero accumulate cost for the weighted sum), the final GAT combine
 * over the owned nodes when the last stage is attention, and the
 * pooled MLP head. A phase equal to an earlier one of the run replays
 * that phase's recorded statistics instead of being simulated again.
 * `threads` runs the greedy bank policy's degree count (0 = all
 * cores); the result is identical for every value.
 */
RunStats price_run(const Model &model, const EngineConfig &cfg,
                   const RunOptions &opts, const PricedGraph &die,
                   unsigned threads, PricingScratch &scratch);

} // namespace flowgnn

#endif // FLOWGNN_CORE_PHASE_MODEL_H
