/**
 * @file
 * Graph Convolutional Network layer (Kipf & Welling), the
 * representative of the SpMM-expressible GNN family (paper Table II).
 *
 *   x_i' = act( W * ( x_i / d̂_i  +  sum_j x_j / sqrt(d̂_i d̂_j) ) )
 *
 * with d̂ = degree + 1 (renormalization trick, self-loop included).
 * The per-edge symmetric normalization is the message function; the
 * self-loop term folds into the transform.
 */
#ifndef FLOWGNN_NN_GCN_LAYER_H
#define FLOWGNN_NN_GCN_LAYER_H

#include "nn/layer.h"
#include "tensor/activations.h"
#include "tensor/linear.h"

namespace flowgnn {

/** GCN convolution with symmetric degree normalization. */
class GcnLayer : public Layer
{
  public:
    GcnLayer(std::size_t in_dim, std::size_t out_dim, Activation act,
             Rng &rng);

    const char *name() const override { return "gcn"; }
    std::size_t in_dim() const override { return linear_.in_dim(); }
    std::size_t out_dim() const override { return linear_.out_dim(); }
    std::size_t msg_dim() const override { return linear_.in_dim(); }
    AggregatorKind aggregator_kind() const override
    {
        return AggregatorKind::kSum;
    }

    void gather(const InEdges &col, const MessageInputs &in,
                const LayerContext &ctx, float *state) const override;

    void transform_rows(const float *x, const float *agg, NodeId first,
                        std::size_t count, const LayerContext &ctx,
                        float *out) const override;

    std::vector<std::size_t> nt_pass_dims() const override
    {
        return {linear_.in_dim()};
    }

    std::size_t transform_macs() const override { return linear_.macs(); }

    /** The normalization scale is one multiply per edge element. */
    std::size_t message_macs() const override { return linear_.in_dim(); }

    const Linear &linear() const { return linear_; }

  private:
    Linear linear_;
    Activation act_;
};

} // namespace flowgnn

#endif // FLOWGNN_NN_GCN_LAYER_H
