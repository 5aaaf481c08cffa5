/**
 * @file
 * The FlowGNN dataflow engine: a cycle-stepped microarchitecture model
 * of the accelerator in paper Fig. 3(b). A run computes the GNN's
 * values with the functional kernel (core/functional.h) and counts
 * cycles with the structural phase model (core/phase_model.h) — the
 * two never interact, because timing depends on graph structure
 * alone. Embeddings are bit-identical to the reference executor in
 * every pipeline mode and at every NT-unit count: the kernel folds
 * each destination's messages in src-major order, whatever order the
 * modeled units would deliver them in.
 *
 * Architecture modeled per pipeline phase:
 *
 *   [node queue] -> Pnode x NT unit -> NT-to-MP adapter (on-the-fly
 *   multicast by destination bank, Papply -> Pscatter re-batching) ->
 *   Pnode*Pedge bounded FIFOs -> Pedge x MP unit -> banked ping-pong
 *   message buffers
 *
 * Each NT unit ping-pongs accumulate/output so the next node's
 * accumulation overlaps the current node's streaming; each MP unit
 * exclusively owns destination bank (dst % Pedge) so units never
 * conflict, with zero graph pre-processing. The four pipeline modes of
 * Fig. 4 are selectable for the ablation study.
 */
#ifndef FLOWGNN_CORE_ENGINE_H
#define FLOWGNN_CORE_ENGINE_H

#include <memory>

#include "core/config.h"
#include "core/functional.h"
#include "core/stats.h"
#include "graph/sample.h"
#include "nn/model.h"

namespace flowgnn {

/** Output of one engine run. */
struct RunResult {
    /** Final node embeddings [num_nodes x embedding_dim]. */
    Matrix embeddings;
    /** Graph-level prediction from the pooled head. */
    float prediction = 0.0f;
    /** Timing and utilization statistics. */
    RunStats stats;

    /** Wall latency at the clock the engine was configured with. */
    double
    latency_ms() const
    {
        return stats.latency_ms();
    }

    /** Wall latency at an explicit what-if clock. */
    double
    latency_ms(double at_clock_mhz) const
    {
        return stats.latency_ms(at_clock_mhz);
    }
};

/**
 * Reusable per-run scratch memory. A workspace keeps the graph-sized
 * buffers (bank maps, the functional kernel's row-major embedding and
 * aggregator buffers) alive across runs so a long-lived replica's hot
 * path stops paying per-graph allocation; each serve replica owns
 * exactly one. Not thread-safe: never share one workspace between
 * concurrent runs.
 */
class RunWorkspace
{
  public:
    RunWorkspace();
    ~RunWorkspace();
    RunWorkspace(RunWorkspace &&) noexcept;
    RunWorkspace &operator=(RunWorkspace &&) noexcept;
    RunWorkspace(const RunWorkspace &) = delete;
    RunWorkspace &operator=(const RunWorkspace &) = delete;

  private:
    friend class Engine;
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * FlowGNN accelerator instance: one compiled model kernel plus the
 * parallelism configuration. Graphs are streamed in one at a time with
 * zero pre-processing (run() accepts raw COO samples).
 */
class Engine
{
  public:
    /**
     * @param model  the GNN to accelerate (borrowed; must outlive the
     *               engine)
     * @param config parallelism and pipeline-mode settings
     */
    Engine(const Model &model, EngineConfig config = {});

    const EngineConfig &config() const { return config_; }
    const Model &model() const { return model_; }

    /**
     * Runs one graph end to end: input DMA, all pipeline phases,
     * global pooling, and the prediction head. The sample is prepared
     * internally (virtual node / DGN field) exactly as the reference
     * executor prepares it. Scratch memory comes from `ws`, which is
     * reused across calls; the overloads without a workspace allocate
     * a fresh one per call (convenient, but slower on a hot path).
     */
    RunResult run(const GraphSample &sample, const RunOptions &opts,
                  RunWorkspace &ws) const;
    RunResult run(const GraphSample &sample,
                  const RunOptions &opts) const;
    RunResult run(const GraphSample &sample) const;

    /**
     * Runs a sample that is already in prepared form, skipping
     * Model::prepare. This is the entry point for callers that manage
     * preparation themselves — notably sharded execution, where the
     * virtual node / DGN field is applied to the full graph once,
     * before planning.
     */
    RunResult run_prepared(const GraphSample &prepared,
                           const RunOptions &opts, RunWorkspace &ws) const;

    /**
     * The canonical run body: a borrowed SampleRef, so mmap-backed
     * graphs (io::GraphView::sample) run without ever materializing a
     * GraphSample. The GraphSample overloads delegate here (one
     * thread). `threads` runs the functional kernel's workers and the
     * host-side adjacency builds (0 = all cores); results are
     * bit-identical for every value. Throws std::invalid_argument on a
     * sample without nodes. The ref's backing must stay alive for the
     * duration of the call.
     */
    RunResult run_prepared(const SampleRef &prepared,
                           const RunOptions &opts, RunWorkspace &ws,
                           unsigned threads = 0) const;

    /**
     * Preemptible run: executes stages starting from `ckpt.next_stage`
     * (0 = fresh run) and either completes the run (`result` is
     * filled, `ckpt` is reset to fresh) or yields at a message-passing
     * layer boundary (`ckpt` holds the resume state, `result` is
     * meaningless). A segment yields when `opts.preempt` is requested
     * or after `max_stages` stages complete in THIS call — but always
     * runs at least one stage (progress guarantee) and never yields
     * after the final stage (the epilogue is cheaper than a
     * checkpoint). Resuming from the returned checkpoint — on this
     * engine or any identically-configured one — produces embeddings,
     * prediction, and RunStats bit-identical to an uninterrupted run.
     * The checkpoint's buffers are consumed (moved from) on resume.
     */
    SegmentOutcome run_resumable(const SampleRef &prepared,
                                 const RunOptions &opts, RunWorkspace &ws,
                                 LayerCheckpoint &ckpt, RunResult &result,
                                 std::size_t max_stages = std::size_t(-1),
                                 unsigned threads = 0) const;

  private:
    const Model &model_;
    EngineConfig config_;
};

} // namespace flowgnn

#endif // FLOWGNN_CORE_ENGINE_H
