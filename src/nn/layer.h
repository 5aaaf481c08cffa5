/**
 * @file
 * Abstract GNN layer kernel: the unit of the FlowGNN programming model.
 *
 * A layer supplies the three differentiable pieces of the
 * message-passing formulation (paper Eq. 2)
 *
 *   x_i^{l+1} = gamma(x_i^l, A_{j in N(i)}(phi(x_i^l, x_j^l, e_ij^l)))
 *
 * as `message` (phi), an AggregatorKind (A), and `transform` (gamma),
 * plus the timing metadata the dataflow engine needs (widths of the
 * input-stationary fully-connected passes performed by the NT unit).
 *
 * Adapting FlowGNN to a new GNN means writing one subclass — exactly
 * the "few highlighted lines" of Listing 1 in the paper.
 */
#ifndef FLOWGNN_NN_LAYER_H
#define FLOWGNN_NN_LAYER_H

#include <cstdint>
#include <vector>

#include "graph/sample.h"
#include "nn/aggregator.h"

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

/**
 * Builds the LayerContext for a sample (one pass over the edges; a
 * GraphSample converts to its borrowed SampleRef). Degree counting runs on
 * `threads` host cores (0 = all); the dgn_norm accumulation stays a
 * serial edge loop on purpose — float addition order is part of the
 * bit-identity contract. The context borrows the ref's dgn_field
 * pointer, so the backing must outlive the context.
 */
LayerContext make_layer_context(const SampleRef &sample,
                                const PnaParams &pna = {},
                                unsigned threads = 0);

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

    /** Whether phi reads edge features; the functional kernel hands
     * edge rows only to layers that say so. */
    virtual bool uses_edge_features() const { return false; }

    /**
     * phi: writes the message along edge src->dst, given the source
     * node's embedding at this layer's input, into `out`. Called
     * concurrently from the functional kernel's workers, so it must
     * not mutate shared state.
     *
     * @param x_src     source embedding (in_dim floats)
     * @param edge_feat pointer to the edge feature row (may be null)
     * @param edge_dim  number of edge features
     * @param out       msg_dim() floats, all overwritten
     */
    virtual void message(const float *x_src, const float *edge_feat,
                         std::size_t edge_dim, NodeId src, NodeId dst,
                         const LayerContext &ctx, float *out) const;

    /**
     * gamma: the new embedding from the node's own embedding and the
     * finalized aggregate (empty when msg_dim() == 0).
     */
    virtual Vec transform(const Vec &x_self, const Vec &agg, NodeId node,
                          const LayerContext &ctx) const = 0;

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
