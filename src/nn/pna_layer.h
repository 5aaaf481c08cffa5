/**
 * @file
 * Principal Neighbourhood Aggregation layer (paper Eq. 3): four
 * aggregators (mean, std, max, min) crossed with three degree scalers
 * (identity, amplification, attenuation), concatenated with the node's
 * own embedding and mixed by a linear layer.
 *
 * PNA is the paper's representative of GNNs whose aggregation cannot
 * be expressed as SpMM because the scaler coefficients depend on the
 * destination node's degree and must be computed on the fly.
 */
#ifndef FLOWGNN_NN_PNA_LAYER_H
#define FLOWGNN_NN_PNA_LAYER_H

#include "nn/layer.h"
#include "tensor/activations.h"
#include "tensor/linear.h"

namespace flowgnn {

/** PNA convolution: 12-way aggregation + linear mixing. */
class PnaLayer : public Layer
{
  public:
    PnaLayer(std::size_t dim, std::size_t edge_dim, Activation act,
             Rng &rng);

    const char *name() const override { return "pna"; }
    std::size_t in_dim() const override { return dim_; }
    std::size_t out_dim() const override { return dim_; }
    std::size_t msg_dim() const override { return dim_; }
    AggregatorKind aggregator_kind() const override
    {
        return AggregatorKind::kPna;
    }
    std::size_t edge_dim() const override { return edge_dim_; }

    void gather(const InEdges &col, const MessageInputs &in,
                const LayerContext &ctx, float *state) const override;

    void transform_rows(const float *x, const float *agg, NodeId first,
                        std::size_t count, const LayerContext &ctx,
                        float *out) const override;

    std::vector<std::size_t> nt_pass_dims() const override
    {
        // One input-stationary pass over [x_self || 12 aggregates].
        return {13 * dim_};
    }

    std::size_t transform_macs() const override { return mix_.macs(); }

    std::size_t message_macs() const override
    {
        return edge_dim_ > 0 ? edge_dim_ * dim_ : 0;
    }

  private:
    std::size_t dim_;
    std::size_t edge_dim_;
    Linear edge_enc_;
    Linear mix_; ///< Linear(13*dim -> dim)
    Activation act_;
};

} // namespace flowgnn

#endif // FLOWGNN_NN_PNA_LAYER_H
