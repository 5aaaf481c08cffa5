/**
 * @file
 * Directional Graph Network layer (paper Sec. IV): aggregates with the
 * mean and the absolute directional derivative along a per-node vector
 * field u (the graph Laplacian's Fiedler vector),
 *
 *   y_i = concat( mean_j m_j ,  | sum_j w_ij * m_j | )
 *   w_ij = (u_j - u_i) / (sum_k |u_k - u_i| + eps)
 *   x_i' = act( W [ x_i || y_i ] )
 *
 * DGN is the paper's representative of anisotropic GNNs with guided
 * aggregation: the per-edge weight w_ij depends on both endpoints, so
 * messages must be materialized per edge.
 */
#ifndef FLOWGNN_NN_DGN_LAYER_H
#define FLOWGNN_NN_DGN_LAYER_H

#include "nn/layer.h"
#include "tensor/activations.h"
#include "tensor/linear.h"

namespace flowgnn {

/** DGN convolution: mean + |directional derivative| aggregation. */
class DgnLayer : public Layer
{
  public:
    DgnLayer(std::size_t dim, std::size_t edge_dim, Activation act,
             Rng &rng);

    const char *name() const override { return "dgn"; }
    std::size_t in_dim() const override { return dim_; }
    std::size_t out_dim() const override { return dim_; }
    /** Message carries [m, w*m]: mean part and directional part. */
    std::size_t msg_dim() const override { return 2 * dim_; }
    AggregatorKind aggregator_kind() const override
    {
        return AggregatorKind::kDgn;
    }
    std::size_t edge_dim() const override { return edge_dim_; }

    void gather(const InEdges &col, const MessageInputs &in,
                const LayerContext &ctx, float *state) const override;

    void transform_rows(const float *x, const float *agg, NodeId first,
                        std::size_t count, const LayerContext &ctx,
                        float *out) const override;

    std::vector<std::size_t> nt_pass_dims() const override
    {
        // One pass over [x_self || mean || dir].
        return {3 * dim_};
    }

    std::size_t transform_macs() const override { return mix_.macs(); }

    std::size_t message_macs() const override
    {
        // Edge encoder plus the directional weight multiply.
        return (edge_dim_ > 0 ? edge_dim_ * dim_ : 0) + dim_;
    }

  private:
    std::size_t dim_;
    std::size_t edge_dim_;
    Linear edge_enc_;
    Linear mix_; ///< Linear(3*dim -> dim)
    Activation act_;
};

} // namespace flowgnn

#endif // FLOWGNN_NN_DGN_LAYER_H
