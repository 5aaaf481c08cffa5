#include "nn/gcn_layer.h"

#include <cmath>

#include "tensor/ops.h"

namespace flowgnn {

GcnLayer::GcnLayer(std::size_t in_dim, std::size_t out_dim, Activation act,
                   Rng &rng)
    : linear_(in_dim, out_dim), act_(act)
{
    linear_.init_glorot(rng);
}

void
GcnLayer::message(const float *x_src, const float *, std::size_t,
                  NodeId src, NodeId dst, const LayerContext &ctx,
                  float *out) const
{
    // Symmetric normalization with renormalized degrees (deg + 1).
    float d_src = static_cast<float>(ctx.out_deg[src]) + 1.0f;
    float d_dst = static_cast<float>(ctx.in_deg[dst]) + 1.0f;
    float norm = 1.0f / std::sqrt(d_src * d_dst);
    for (std::size_t i = 0; i < linear_.in_dim(); ++i)
        out[i] = x_src[i] * norm;
}

Vec
GcnLayer::transform(const Vec &x_self, const Vec &agg, NodeId node,
                    const LayerContext &ctx) const
{
    // Self-loop term: x_i / (deg_i + 1).
    float d_hat = static_cast<float>(ctx.in_deg[node]) + 1.0f;
    Vec combined = agg;
    axpy_inplace(combined, 1.0f / d_hat, x_self);
    Vec out = linear_.forward(combined);
    apply_activation(out, act_);
    return out;
}

} // namespace flowgnn
