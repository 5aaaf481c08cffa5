/**
 * @file
 * The functional kernel: the one place GNN values are computed (Engine,
 * the ghost executor and Model::reference_embeddings all call it). Per
 * stage, a parallel per-node transform, then a fused message +
 * aggregate gather for the next conv; workers own edge-balanced
 * destination ranges and fold in-edges in (src, edge id) order, so
 * results are bit-identical at every thread count (docs/DESIGN.md,
 * "Functional kernel").
 */
#ifndef FLOWGNN_CORE_FUNCTIONAL_H
#define FLOWGNN_CORE_FUNCTIONAL_H

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "graph/sample.h"
#include "nn/model.h"

namespace flowgnn {

/**
 * Value state captured at a message-passing layer boundary — the
 * preemption checkpoint format (docs/DESIGN.md, "The preemption
 * checkpoint").
 *
 * A boundary after stage k holds exactly three pieces of value state:
 * the embeddings entering stage k+1, the aggregation gathered for
 * stage k+1 (the Aggregator itself is rebuilt from the model), and the
 * pending-GAT flag (stage k was attention: `embeddings` holds
 * projections whose combine is stage k+1's prologue). Everything else
 * — in-adjacency, bank maps, schedule — is a pure function of
 * (sample, config) rebuilt on resume, so resumed runs are
 * bit-identical to uninterrupted ones. No timing is carried: timing
 * is structural, so Engine and the ghost executor price a run once,
 * when it completes.
 */
struct LayerCheckpoint {
    /** Stages completed; the resume point. 0 = a fresh run. */
    std::size_t next_stage = 0;
    /** Per-node embeddings entering `next_stage` (quantized values
     * are stored post-quantization, so bits are preserved). */
    std::vector<Vec> embeddings;
    /** Pending aggregation state (num_nodes x state_dim, flat), the
     * messages gathered for `next_stage`; empty when have_agg is
     * false. */
    std::vector<float> agg_state;
    bool have_agg = false;
    /** Stage next_stage-1 was GAT: `embeddings` holds projections. */
    bool pending_gat = false;

    /** Checkpoint size in 4-byte words — what a scheduler charges as
     * store/reload DMA when pricing preemption delay. */
    std::uint64_t
    checkpoint_words() const
    {
        std::uint64_t words = agg_state.size();
        for (const Vec &row : embeddings)
            words += row.size();
        return words;
    }
};

/** How a resumable run segment ended. */
enum class SegmentOutcome {
    kComplete,  ///< ran to the end; the results are filled
    kPreempted, ///< yielded at a layer boundary; checkpoint updated
};

/**
 * Row-major scratch of the functional kernel (embedding ping-pong and
 * aggregator state). Buffers are resized, never shrunk, so a replica
 * that keeps one across runs stops allocating them per graph. Not
 * thread-safe: one scratch per concurrent run.
 */
struct FunctionalScratch {
    std::vector<float> cur;
    std::vector<float> out;
    std::vector<float> state;
};

/**
 * Computes the model's node embeddings on a prepared sample from stage
 * `ckpt.next_stage` (0 = fresh). Yields at a layer boundary — after at
 * least one stage, never after the last — once `max_stages` stages ran
 * in this call or `opts.preempt` is requested: fills `ckpt`, returns
 * kPreempted. Otherwise writes `embeddings` [num_nodes x
 * embedding_dim], resets `ckpt` and returns kComplete. Fixed-point
 * emulation quantizes at the engine's points: inputs, messages,
 * aggregator state after every accumulate, finalized aggregates and
 * stage outputs.
 *
 * `threads` workers (0 = all host cores; graphs under 4096 edges stay
 * on the caller) give bit-identical results for every value. Throws
 * std::invalid_argument on a zero-node or inconsistent sample or a
 * mismatched checkpoint. A null `scratch` uses a temporary one.
 */
SegmentOutcome functional_forward(const Model &model,
                                  const SampleRef &prepared,
                                  const RunOptions &opts, unsigned threads,
                                  LayerCheckpoint &ckpt,
                                  std::size_t max_stages, Matrix &embeddings,
                                  FunctionalScratch *scratch = nullptr);

} // namespace flowgnn

#endif // FLOWGNN_CORE_FUNCTIONAL_H
