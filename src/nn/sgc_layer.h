/**
 * @file
 * Simplified Graph Convolution (Wu et al.) — the paper's Table II
 * places SGC in the GCN/SpMM family ("simplified GCN also falls into
 * this category"). One SGC propagation step is a GCN hop without the
 * per-layer nonlinearity and without per-hop weights:
 *
 *   x_i' = x_i / d̂_i + sum_j x_j / sqrt(d̂_i d̂_j)
 *
 * A K-layer SGC model stacks K of these propagation-only layers and
 * applies a single linear classifier at the end (the model head).
 */
#ifndef FLOWGNN_NN_SGC_LAYER_H
#define FLOWGNN_NN_SGC_LAYER_H

#include "nn/layer.h"

namespace flowgnn {

/** One weight-free SGC propagation hop. */
class SgcLayer : public Layer
{
  public:
    explicit SgcLayer(std::size_t dim) : dim_(dim) {}

    const char *name() const override { return "sgc"; }
    std::size_t in_dim() const override { return dim_; }
    std::size_t out_dim() const override { return dim_; }
    std::size_t msg_dim() const override { return dim_; }

    void gather(const InEdges &col, const MessageInputs &in,
                const LayerContext &ctx, float *state) const override;

    void transform_rows(const float *x, const float *agg, NodeId first,
                        std::size_t count, const LayerContext &ctx,
                        float *out) const override;

    std::vector<std::size_t> nt_pass_dims() const override
    {
        // Element-wise combine only: a single streaming pass.
        return {dim_};
    }

    std::size_t transform_macs() const override { return dim_; }
    std::size_t message_macs() const override { return dim_; }

  private:
    std::size_t dim_;
};

} // namespace flowgnn

#endif // FLOWGNN_NN_SGC_LAYER_H
