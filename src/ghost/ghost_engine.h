/**
 * @file
 * Execution of a GhostPlan: per-die timing through the shared phase
 * model (src/core/phase_model.h) plus one global functional pass.
 *
 * The engine's timing is purely structural — cycle counts depend on
 * graph shape and layer dims, never on embedding values — so a ghost
 * run splits cleanly: each die prices its phases over its local
 * subgraph (owned vertices pay full NT work; ghost vertices re-stream
 * their received embeddings at zero accumulate cost, GAT ghosts pay
 * the local projection), while the functional kernel
 * (core/functional.h) computes the answer once over the whole graph.
 * Its gathers fold each destination's messages in src-major order,
 * exactly as in an unsharded run, so ghost results are bit-identical
 * to unsharded runs in every pipeline mode and at every NT-unit count
 * — the same exactness contract the halo mode has.
 *
 * Per-layer exchange cycles compose through the layered
 * compose_shard_stats overload: serial by default, or hidden behind
 * each phase's compute window under LinkConfig::overlap.
 */
#ifndef FLOWGNN_GHOST_GHOST_ENGINE_H
#define FLOWGNN_GHOST_GHOST_ENGINE_H

#include "ghost/ghost_plan.h"

namespace flowgnn {

/**
 * Runs a ghost plan: P concurrent per-die timing passes + one global
 * functional pass, composed into the same ShardedRunResult shape the
 * halo path produces. Non-sharded plans (fallbacks) run the plain
 * engine. `link` prices nothing here — the plan already did — but its
 * `overlap` flag picks the comm/compute composition.
 */
ShardedRunResult run_ghost_plan(const Model &model,
                                const EngineConfig &config,
                                const GraphSample &prepared,
                                GhostPlan &&plan, const RunOptions &opts,
                                const LinkConfig &link);

/**
 * SampleRef overload, the canonical body (the GraphSample one
 * delegates): the global functional pass runs straight off the
 * borrowed view — an mmap-backed graph is never copied into a
 * GraphSample — and `threads` runs the functional kernel's workers
 * (bit-identical results for every value; the per-die timing passes
 * already run one thread per die). The ref's backing must stay alive
 * for the duration of the call.
 */
ShardedRunResult run_ghost_plan(const Model &model,
                                const EngineConfig &config,
                                const SampleRef &prepared,
                                GhostPlan &&plan, const RunOptions &opts,
                                const LinkConfig &link,
                                unsigned threads = 0);

/**
 * Preemption state for a ghost run. The global functional pass is the
 * only part of a ghost run that carries values, so it is the only part
 * that checkpoints: the per-die timing passes are structural (pure
 * functions of plan + config) and run once, at final completion —
 * which is why a preempted-and-resumed ghost run is trivially
 * bit-identical to an uninterrupted one in its timing too.
 *
 * On preemption the plan is stashed here (the functional pass never
 * mutates it); resume by passing `std::move(state.plan)` back into
 * run_ghost_plan with the same state object.
 */
struct GhostResumeState {
    /** True iff the last call yielded instead of completing. */
    bool preempted = false;
    /** The functional pass's layer-boundary checkpoint. */
    LayerCheckpoint checkpoint;
    /** The plan, stashed across the preemption (valid iff preempted). */
    GhostPlan plan;
    /**
     * Deterministic slicing hook: yield after this many stages per
     * call even without a token (std::size_t(-1) = run until the
     * token fires or the run completes). Used by the preempt-at-k
     * differential tests; schedulers normally leave it alone and
     * drive preemption through RunOptions::preempt.
     */
    std::size_t max_stages = std::size_t(-1);
};

/**
 * Resumable ghost run: like the SampleRef overload, but the global
 * functional pass honors RunOptions::preempt and `resume->max_stages`,
 * yielding at message-passing layer boundaries. On preemption the
 * returned result is empty, `resume->preempted` is true, and the plan
 * is stashed in `resume->plan`; call again with that plan to continue.
 * Passing resume == nullptr is exactly the plain overload. Non-sharded
 * fallback plans are preemptible the same way.
 */
ShardedRunResult run_ghost_plan(const Model &model,
                                const EngineConfig &config,
                                const SampleRef &prepared,
                                GhostPlan &&plan, const RunOptions &opts,
                                const LinkConfig &link,
                                GhostResumeState *resume,
                                unsigned threads = 0);

/**
 * Drop-in counterpart of ShardedEngine for ghost mode; ShardedEngine
 * itself routes here when ShardConfig::mode == kGhostExchange, so most
 * callers never name this class.
 */
class GhostExchangeEngine {
  public:
    GhostExchangeEngine(const Model &model, EngineConfig config,
                        ShardConfig shard_config);

    ShardedRunResult run(const GraphSample &sample) const;
    ShardedRunResult run(const GraphSample &sample,
                         const RunOptions &opts) const;

  private:
    const Model &model_;
    EngineConfig config_;
    ShardConfig shard_config_;
};

} // namespace flowgnn

#endif // FLOWGNN_GHOST_GHOST_ENGINE_H
