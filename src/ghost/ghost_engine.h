/**
 * @file
 * Execution of a GhostPlan: one global functional pass plus per-die
 * timing through the shared phase model's price_run
 * (src/core/phase_model.h).
 *
 * The engine's timing is purely structural — cycle counts depend on
 * graph shape and layer dims, never on embedding values — so a ghost
 * run splits cleanly: the functional kernel (core/functional.h)
 * computes the answer once over the whole graph, segment by segment
 * if preempted, and when it completes each die prices its whole run
 * over its local subgraph (owned vertices pay full NT work; ghost
 * vertices re-stream their received embeddings at zero accumulate
 * cost, GAT ghosts pay the local projection). This is the rule
 * Engine::run_resumable follows for one die. The kernel's gathers fold
 * each destination's messages in src-major order, exactly as in an
 * unsharded run, so ghost results are bit-identical to unsharded runs
 * in every pipeline mode and at every NT-unit count.
 *
 * Per-layer exchange cycles compose through compose_shard_stats:
 * serial by default, or hidden behind each phase's compute window
 * under LinkConfig::overlap.
 */
#ifndef FLOWGNN_GHOST_GHOST_ENGINE_H
#define FLOWGNN_GHOST_GHOST_ENGINE_H

#include "ghost/ghost_plan.h"

namespace flowgnn {

/**
 * Runs a ghost plan to completion: one global functional pass + P
 * concurrent per-die timing passes, composed into one
 * ShardedRunResult. A non-sharded (fallback) plan is priced as one
 * die over the whole sample, exactly as Engine prices it. `link`
 * prices nothing here — the plan already did — but its `overlap` flag
 * picks the comm/compute composition. The plan is only read. Throws
 * std::invalid_argument on an invalid `config` or a malformed sample.
 *
 * The global functional pass runs straight off the borrowed view — an
 * mmap-backed graph is never copied into a GraphSample, and a
 * GraphSample binds through its SampleRef — and `threads` runs the
 * functional kernel's workers (bit-identical results for every value;
 * the per-die timing passes already run one thread per die). The
 * ref's backing must stay alive for the duration of the call.
 */
ShardedRunResult run_ghost_plan(const Model &model,
                                const EngineConfig &config,
                                const SampleRef &prepared,
                                const GhostPlan &plan,
                                const RunOptions &opts,
                                const LinkConfig &link,
                                unsigned threads = 0);

/**
 * Resumable ghost run, with Engine::run_resumable's contract: the
 * global functional pass runs from `ckpt.next_stage` and either
 * completes the run (`result` is filled, `ckpt` is reset to fresh) or
 * yields at a message-passing layer boundary once `opts.preempt` is
 * requested or `max_stages` stages ran in this call (`ckpt` holds the
 * values, `result` is untouched). The functional pass is the only part
 * of a ghost run that carries values, so it is the only part that
 * checkpoints; the per-die timing passes run once, on the segment
 * that completes, which is why a resumed ghost run is bit-identical to
 * an uninterrupted one in its timing too. Resume by calling again with
 * the same plan and checkpoint.
 */
SegmentOutcome run_ghost_plan(const Model &model,
                              const EngineConfig &config,
                              const SampleRef &prepared,
                              const GhostPlan &plan,
                              const RunOptions &opts,
                              const LinkConfig &link,
                              LayerCheckpoint &ckpt,
                              ShardedRunResult &result,
                              std::size_t max_stages = std::size_t(-1),
                              unsigned threads = 0);

/**
 * Multi-die FlowGNN instance: one model, P identical dies, one job on
 * all of them. run() is Model::prepare -> make_ghost_plan ->
 * run_ghost_plan. Thread-safe for concurrent run() calls (each run
 * owns its scratch).
 */
class ShardedEngine
{
  public:
    ShardedEngine(const Model &model, EngineConfig engine_config = {},
                  ShardConfig shard_config = {});

    /**
     * Runs one graph across all dies. Models with a virtual node run
     * on a single die regardless of num_shards: the virtual node is
     * connected to every node, so every vertex would be a boundary
     * vertex and each exchange would ship the whole graph.
     */
    ShardedRunResult run(const GraphSample &sample,
                         const RunOptions &opts = {}) const;

  private:
    const Model &model_;
    EngineConfig config_;
    ShardConfig shard_config_;
};

} // namespace flowgnn

#endif // FLOWGNN_GHOST_GHOST_ENGINE_H
