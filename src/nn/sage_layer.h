/**
 * @file
 * GraphSAGE layer (Hamilton et al.) — the paper groups GraphSage with
 * the GIN family ("GraphSage falls into this category", Table II
 * discussion) and Sec. V notes that older GNNs like it run on the
 * existing FlowGNN kernels. Mean-aggregation variant:
 *
 *   x_i' = act( W_self x_i + W_nbr * mean_j x_j )
 */
#ifndef FLOWGNN_NN_SAGE_LAYER_H
#define FLOWGNN_NN_SAGE_LAYER_H

#include "nn/layer.h"
#include "tensor/activations.h"
#include "tensor/linear.h"

namespace flowgnn {

/** GraphSAGE convolution with mean aggregation. */
class SageLayer : public Layer
{
  public:
    SageLayer(std::size_t in_dim, std::size_t out_dim, Activation act,
              Rng &rng);

    const char *name() const override { return "sage"; }
    std::size_t in_dim() const override { return self_.in_dim(); }
    std::size_t out_dim() const override { return self_.out_dim(); }
    std::size_t msg_dim() const override { return self_.in_dim(); }
    AggregatorKind aggregator_kind() const override
    {
        return AggregatorKind::kMean;
    }

    void gather(const InEdges &col, const MessageInputs &in,
                const LayerContext &ctx, float *state) const override;

    void transform_rows(const float *x, const float *agg, NodeId first,
                        std::size_t count, const LayerContext &ctx,
                        float *out) const override;

    std::vector<std::size_t> nt_pass_dims() const override
    {
        // Two input-stationary passes: W_self over x, W_nbr over mean.
        return {self_.in_dim(), nbr_.in_dim()};
    }

    std::size_t transform_macs() const override
    {
        return self_.macs() + nbr_.macs();
    }

  private:
    Linear self_;
    Linear nbr_;
    Activation act_;
};

} // namespace flowgnn

#endif // FLOWGNN_NN_SAGE_LAYER_H
