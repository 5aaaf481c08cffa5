#include "nn/sgc_layer.h"

#include <cmath>

#include "tensor/ops.h"

namespace flowgnn {

void
SgcLayer::message(const float *x_src, const float *, std::size_t,
                  NodeId src, NodeId dst, const LayerContext &ctx,
                  float *out) const
{
    float d_src = static_cast<float>(ctx.out_deg[src]) + 1.0f;
    float d_dst = static_cast<float>(ctx.in_deg[dst]) + 1.0f;
    const float norm = 1.0f / std::sqrt(d_src * d_dst);
    for (std::size_t i = 0; i < dim_; ++i)
        out[i] = x_src[i] * norm;
}

Vec
SgcLayer::transform(const Vec &x_self, const Vec &agg, NodeId node,
                    const LayerContext &ctx) const
{
    float d_hat = static_cast<float>(ctx.in_deg[node]) + 1.0f;
    Vec out = agg;
    axpy_inplace(out, 1.0f / d_hat, x_self);
    return out;
}

} // namespace flowgnn
