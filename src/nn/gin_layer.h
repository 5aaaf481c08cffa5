/**
 * @file
 * Graph Isomorphism Network layer with edge embeddings (paper Eq. 1):
 *
 *   x_i' = MLP( (1 + eps) * x_i + sum_j ReLU(x_j + EdgeEnc(e_ji)) )
 *
 * GIN is the paper's representative of GNNs where SpMM does not apply
 * because the message transformation must run once per edge.
 */
#ifndef FLOWGNN_NN_GIN_LAYER_H
#define FLOWGNN_NN_GIN_LAYER_H

#include "nn/layer.h"
#include "tensor/mlp.h"

namespace flowgnn {

/** GIN convolution with an edge-feature encoder and a 2-layer MLP. */
class GinLayer : public Layer
{
  public:
    /**
     * @param dim       hidden dimension (in == out for GIN)
     * @param edge_dim  raw edge feature count (0 disables the encoder)
     * @param act       activation applied after the MLP
     */
    GinLayer(std::size_t dim, std::size_t edge_dim, Activation act,
             Rng &rng);

    const char *name() const override { return "gin"; }
    std::size_t in_dim() const override { return dim_; }
    std::size_t out_dim() const override { return dim_; }
    std::size_t msg_dim() const override { return dim_; }
    std::size_t edge_dim() const override { return edge_dim_; }

    void gather(const InEdges &col, const MessageInputs &in,
                const LayerContext &ctx, float *state) const override;

    void transform_rows(const float *x, const float *agg, NodeId first,
                        std::size_t count, const LayerContext &ctx,
                        float *out) const override;

    std::vector<std::size_t> nt_pass_dims() const override
    {
        // MLP: dim -> 2*dim -> dim, two input-stationary passes.
        return {dim_, 2 * dim_};
    }

    std::size_t transform_macs() const override { return mlp_.macs(); }

    std::size_t message_macs() const override
    {
        return edge_dim_ > 0 ? edge_dim_ * dim_ : 0;
    }

    float epsilon() const { return eps_; }
    const Mlp &mlp() const { return mlp_; }

  private:
    std::size_t dim_;
    std::size_t edge_dim_;
    float eps_ = 0.1f; ///< learned in training; fixed constant here.
    Linear edge_enc_;
    Mlp mlp_;
    Activation act_;
};

} // namespace flowgnn

#endif // FLOWGNN_NN_GIN_LAYER_H
