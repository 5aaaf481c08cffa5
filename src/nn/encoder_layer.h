/**
 * @file
 * Input encoder: a per-node linear map from raw node features to the
 * model's hidden dimension (the AtomEncoder analogue of the OGB
 * reference models). Runs as pipeline stage 0 in the engine, fused
 * with the first conv layer's scatter.
 */
#ifndef FLOWGNN_NN_ENCODER_LAYER_H
#define FLOWGNN_NN_ENCODER_LAYER_H

#include "nn/layer.h"
#include "tensor/linear.h"

namespace flowgnn {

/** Per-node feature encoder; no message passing. */
class EncoderLayer : public Layer
{
  public:
    EncoderLayer(std::size_t in_dim, std::size_t out_dim, Rng &rng);

    const char *name() const override { return "encoder"; }
    std::size_t in_dim() const override { return linear_.in_dim(); }
    std::size_t out_dim() const override { return linear_.out_dim(); }

    void transform_rows(const float *x, const float *agg, NodeId first,
                        std::size_t count, const LayerContext &ctx,
                        float *out) const override;

    std::vector<std::size_t> nt_pass_dims() const override
    {
        return {linear_.in_dim()};
    }

    std::size_t transform_macs() const override { return linear_.macs(); }

    const Linear &linear() const { return linear_; }

  private:
    Linear linear_;
};

} // namespace flowgnn

#endif // FLOWGNN_NN_ENCODER_LAYER_H
