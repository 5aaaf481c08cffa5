/**
 * @file
 * Abstract GNN layer kernel: the unit of the FlowGNN programming model.
 *
 * A layer supplies the three differentiable pieces of the
 * message-passing formulation (paper Eq. 2)
 *
 *   x_i^{l+1} = gamma(x_i^l, A_{j in N(i)}(phi(x_i^l, x_j^l, e_ij^l)))
 *
 * as `gather` (phi fused with A: each in-edge's message folds into its
 * destination's aggregator state as it is computed), an
 * AggregatorKind (A), and `transform_rows` (gamma over a block of
 * nodes), plus the timing metadata the dataflow engine needs (widths
 * of the input-stationary fully-connected passes performed by the NT
 * unit).
 *
 * Adapting FlowGNN to a new GNN means writing one subclass — exactly
 * the "few highlighted lines" of Listing 1 in the paper.
 */
#ifndef FLOWGNN_NN_LAYER_H
#define FLOWGNN_NN_LAYER_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/sample.h"
#include "nn/aggregator.h"
#include "tensor/fixed_point.h"
#include "tensor/linear.h"

namespace flowgnn {

/** Which dataflow a layer prefers (paper Sec. III-D2). */
enum class DataflowKind {
    kNtToMp, ///< transform, then scatter (GCN/GIN/PNA/DGN)
    kMpToNt, ///< gather, then transform (GAT attention)
};

/**
 * Per-graph context computed on the fly while a graph streams in:
 * degrees and the DGN directional-field normalizers. This is a single
 * pass over the incoming edge list — part of processing, not
 * pre-processing (no reordering or partition analysis).
 */
struct LayerContext {
    /** Per-node DGN scalar field (num_nodes entries), or null when the
     * sample carries none. A raw pointer rather than the whole sample:
     * the context must not pin a GraphSample when the engine runs off
     * a borrowed SampleRef (mmap-backed graphs). */
    const float *dgn_field = nullptr;
    std::vector<std::uint32_t> in_deg;
    std::vector<std::uint32_t> out_deg;
    /** Per-node sum of |u_j - u_i| over in-neighbors j (+eps), DGN. */
    Vec dgn_norm;
    /** PNA degree-scaler parameters. */
    PnaParams pna;
};

/** Per-node degrees a caller has already counted (the functional
 * kernel reads them off its src-major CSC build). */
struct NodeDegrees {
    std::vector<std::uint32_t> in;
    std::vector<std::uint32_t> out;
};

/**
 * Builds the LayerContext for a sample (one pass over the edges; a
 * GraphSample converts to its borrowed SampleRef). Degree counting runs on
 * `threads` host cores (0 = all); a non-null `counted` is moved in
 * instead of counting. The sample's true_in_deg / true_out_deg
 * (subgraph execution) override either. The dgn_norm accumulation
 * stays a serial edge loop on purpose — float addition order is part
 * of the bit-identity contract. The context borrows the ref's
 * dgn_field pointer, so the backing must outlive the context.
 */
LayerContext make_layer_context(const SampleRef &sample,
                                const PnaParams &pna = {},
                                unsigned threads = 0,
                                NodeDegrees *counted = nullptr);

/** One destination's in-edges, in the order their messages fold. */
struct InEdges {
    NodeId dst = 0;
    std::size_t count = 0;
    /** count source node ids. */
    const NodeId *src = nullptr;
    /** count edge ids (rows of MessageInputs::edge_features), or null
     * when the column carries no edge features. */
    const EdgeId *edge_id = nullptr;
};

/** What a gather reads besides the column itself. */
struct MessageInputs {
    /** [num_nodes x in_dim()] stage inputs, row-major. */
    const float *x = nullptr;
    /** [num_edges x edge_dim] edge feature rows, or null. */
    const float *edge_features = nullptr;
    std::size_t edge_dim = 0;
    /** Fixed-point emulation format, or null for float. */
    const FixedPointFormat *fixed = nullptr;

    /** Source k's input row. */
    const float *
    x_row(const InEdges &col, std::size_t k, std::size_t in_dim) const
    {
        return x + std::size_t(col.src[k]) * in_dim;
    }

    /** Whether `col` carries edge features `dim` wide (dim 0: never). */
    bool
    has_edge_rows(const InEdges &col, std::size_t dim) const
    {
        return dim > 0 && edge_features != nullptr &&
               col.edge_id != nullptr && edge_dim == dim;
    }

    /** Edge k's feature row; only when has_edge_rows(). */
    const float *
    edge_row(const InEdges &col, std::size_t k) const
    {
        return edge_features + std::size_t(col.edge_id[k]) * edge_dim;
    }
};

/**
 * fn(r0, n) over consecutive row tiles [r0, r0 + n) of [0, count),
 * n at most Linear::kTileRows: the blocks in which a transform_rows
 * builds a combined input tile for its Linear passes.
 */
template <class Fn>
inline void
for_row_tiles(std::size_t count, Fn &&fn)
{
    for (std::size_t r0 = 0; r0 < count; r0 += Linear::kTileRows)
        fn(r0, std::min(Linear::kTileRows, count - r0));
}

/**
 * Base class of all FlowGNN layer kernels.
 */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** Kernel name for reports. */
    virtual const char *name() const = 0;

    /** Preferred dataflow; the engine picks the matching schedule. */
    virtual DataflowKind dataflow() const { return DataflowKind::kNtToMp; }

    /** Node embedding dimension consumed. */
    virtual std::size_t in_dim() const = 0;

    /** Node embedding dimension produced. */
    virtual std::size_t out_dim() const = 0;

    /**
     * Message vector dimension produced by phi. Zero means the layer
     * has no message-passing step (e.g. the input encoder).
     */
    virtual std::size_t msg_dim() const { return 0; }

    /** Aggregation function for this layer's messages. */
    virtual AggregatorKind aggregator_kind() const
    {
        return AggregatorKind::kSum;
    }

    /** Aggregator policy instance (kind + msg_dim). */
    Aggregator aggregator() const
    {
        return Aggregator(aggregator_kind(), msg_dim());
    }

    /** Width of the edge features phi reads; 0 when it reads none.
     * The functional kernel hands edge ids only to layers that read
     * them, and rejects a sample whose edge features are another
     * width. */
    virtual std::size_t edge_dim() const { return 0; }
    bool uses_edge_features() const { return edge_dim() > 0; }

    /**
     * phi fused with A: folds the message of every edge in `col`, in
     * order, into the destination's aggregator state (state_dim()
     * floats, already initialized) — one call per destination, each
     * message built in a stack row by fold_messages and never stored.
     * Folding a column equals folding its edges one call each, in the
     * same order, bit for bit. Called concurrently from the
     * functional kernel's workers, so it must not mutate shared
     * state. The base class throws std::logic_error (no messages).
     */
    virtual void gather(const InEdges &col, const MessageInputs &in,
                        const LayerContext &ctx, float *state) const;

    /**
     * gamma over the `count` nodes first, first + 1, ...: row r of
     * `out` (out_dim() floats) receives node first + r's new embedding
     * from its own embedding, row r of `x` (in_dim() floats), and its
     * finalized aggregate, row r of `agg` (the aggregator's out_dim()
     * floats; null when msg_dim() == 0). An attention layer (kMpToNt)
     * writes its projection, which gat_combine finishes. Rows are
     * independent: a block equals its rows one call each, bit for bit,
     * and the built-in layers run their Linear passes over row tiles
     * (Linear::forward_rows) so each weight loads once per tile.
     * Called concurrently on disjoint rows from the functional
     * kernel's workers.
     */
    virtual void transform_rows(const float *x, const float *agg,
                                NodeId first, std::size_t count,
                                const LayerContext &ctx,
                                float *out) const = 0;

    /**
     * Timing metadata: input widths of the sequential input-stationary
     * FC passes the NT unit performs per node (one entry per Linear in
     * the transform). The NT accumulate phase takes
     * sum_p ceil(width_p / Papply) cycles.
     */
    virtual std::vector<std::size_t> nt_pass_dims() const = 0;

    /**
     * Timing metadata: how many times the MP units must stream this
     * layer's edges (GAT attention needs two passes: scores, then the
     * normalized weighted sum).
     */
    virtual std::size_t mp_rounds() const { return 1; }

    /** Multiply-accumulates in gamma, per node (CPU/GPU cost models). */
    virtual std::size_t transform_macs() const = 0;

    /** Multiply-accumulates in phi, per edge (CPU/GPU cost models). */
    virtual std::size_t message_macs() const { return 0; }
};

} // namespace flowgnn

#endif // FLOWGNN_NN_LAYER_H
