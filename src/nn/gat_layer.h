/**
 * @file
 * Graph Attention Network layer: multi-head self-attention over the
 * in-neighborhood (self-loop included).
 *
 *   h_j      = W x_j                       (projection, per head)
 *   s_ij     = LeakyReLU(a_src . h_j + a_dst . h_i)
 *   alpha_ij = softmax_j(s_ij)             (normalized over N(i) u {i})
 *   x_i'     = act( concat_heads( sum_j alpha_ij h_j ) )
 *
 * GAT is the paper's representative anisotropic model: the attention
 * coefficient depends on all of a node's neighbors, so it cannot be
 * expressed as matrix multiplication and favors the gather-first
 * (MP-to-NT) dataflow. The softmax uses the numerically stable
 * two-pass form (max, then exp-sum), identically in the reference
 * executor and the dataflow engine.
 */
#ifndef FLOWGNN_NN_GAT_LAYER_H
#define FLOWGNN_NN_GAT_LAYER_H

#include "nn/layer.h"
#include "tensor/activations.h"
#include "tensor/linear.h"

namespace flowgnn {

/** Multi-head graph attention convolution. */
class GatLayer : public Layer
{
  public:
    GatLayer(std::size_t in_dim, std::size_t num_heads,
             std::size_t head_dim, Activation act, Rng &rng);

    const char *name() const override { return "gat"; }
    DataflowKind dataflow() const override { return DataflowKind::kMpToNt; }
    std::size_t in_dim() const override { return proj_.in_dim(); }
    std::size_t out_dim() const override { return heads_ * head_dim_; }
    std::size_t msg_dim() const override { return out_dim(); }

    std::size_t num_heads() const { return heads_; }
    std::size_t head_dim() const { return head_dim_; }

    /** a_src . h_j per head into out[num_heads()]: the source half of
     * the attention logit. */
    void src_scores(const float *h, float *out) const;

    /** a_dst . h_i per head into out[num_heads()]: the destination
     * half of the logit. */
    void dst_scores(const float *h, float *out) const;

    /** Both logit halves of one node into out[2 * num_heads()]: the
     * src_scores, then the dst_scores. Computed once per node per
     * stage and read by gat_combine for every edge the node is on. */
    void
    scores(const float *h, float *out) const
    {
        src_scores(h, out);
        dst_scores(h, out + heads_);
    }

    /** Output activation (ELU except on the last layer). */
    Activation activation() const { return act_; }

    /**
     * The projection h = W x (all heads concatenated) of `count` rows
     * into out_dim()-float rows; `agg` is unused. gat_combine turns
     * the projections into the layer's output.
     */
    void transform_rows(const float *x, const float *agg, NodeId first,
                        std::size_t count, const LayerContext &ctx,
                        float *out) const override;

    std::vector<std::size_t> nt_pass_dims() const override
    {
        return {proj_.in_dim()};
    }

    std::size_t mp_rounds() const override { return 2; }

    std::size_t transform_macs() const override
    {
        // Projection plus the per-node half of the attention logits.
        return proj_.macs() + 2 * heads_ * head_dim_;
    }

    std::size_t message_macs() const override
    {
        // Score combine + exp-weighted accumulation per edge.
        return 2 * heads_ * head_dim_;
    }

  private:
    std::size_t heads_;
    std::size_t head_dim_;
    Linear proj_; ///< [in_dim -> heads*head_dim]
    Matrix att_src_; ///< [heads x head_dim]
    Matrix att_dst_; ///< [heads x head_dim]
    Activation act_;
};

/**
 * Runs the full two-pass attention for destination `dst` — the only
 * attention arithmetic in the tree, so every executor computes
 * identical bits.
 *
 * @param layer   the GAT layer
 * @param h       every node's projection, row-major (out_dim() floats
 *                per node)
 * @param scores  every node's logit halves from GatLayer::scores
 *                (2 * num_heads() floats per node)
 * @param dst     the destination node
 * @param srcs    its `count` in-neighbors in arrival order
 * @param out     out_dim() floats: the activated output embedding
 */
void gat_combine(const GatLayer &layer, const float *h, const float *scores,
                 NodeId dst, const NodeId *srcs, std::size_t count,
                 float *out);

} // namespace flowgnn

#endif // FLOWGNN_NN_GAT_LAYER_H
