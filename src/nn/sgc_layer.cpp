#include "nn/sgc_layer.h"

#include <cmath>

namespace flowgnn {

void
SgcLayer::gather(const InEdges &col, const MessageInputs &in,
                 const LayerContext &ctx, float *state) const
{
    const float d_dst = static_cast<float>(ctx.in_deg[col.dst]) + 1.0f;
    fold_messages(aggregator(), in.fixed, state, col.count,
                  [&](std::size_t k, float *out) {
                      const float *x_src = in.x_row(col, k, dim_);
                      float d_src =
                          static_cast<float>(ctx.out_deg[col.src[k]]) +
                          1.0f;
                      const float norm = 1.0f / std::sqrt(d_src * d_dst);
                      scale_row(out, x_src, norm, dim_);
                  });
}

void
SgcLayer::transform_rows(const float *x, const float *agg, NodeId first,
                         std::size_t count, const LayerContext &ctx,
                         float *out) const
{
    for (std::size_t r = 0; r < count; ++r) {
        const float d_hat =
            static_cast<float>(ctx.in_deg[first + r]) + 1.0f;
        const float scale = 1.0f / d_hat;
        const std::size_t row = r * dim_;
        for (std::size_t i = 0; i < dim_; ++i)
            out[row + i] = agg[row + i] + scale * x[row + i];
    }
}

} // namespace flowgnn
