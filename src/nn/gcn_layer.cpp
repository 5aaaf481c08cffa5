#include "nn/gcn_layer.h"

#include <cmath>

namespace flowgnn {

GcnLayer::GcnLayer(std::size_t in_dim, std::size_t out_dim, Activation act,
                   Rng &rng)
    : linear_(in_dim, out_dim), act_(act)
{
    linear_.init_glorot(rng);
}

void
GcnLayer::gather(const InEdges &col, const MessageInputs &in,
                 const LayerContext &ctx, float *state) const
{
    // Symmetric normalization with renormalized degrees (deg + 1).
    const std::size_t dim = linear_.in_dim();
    const float d_dst = static_cast<float>(ctx.in_deg[col.dst]) + 1.0f;
    fold_messages(aggregator(), in.fixed, state, col.count,
                  [&](std::size_t k, float *out) {
                      const float *x_src = in.x_row(col, k, dim);
                      float d_src =
                          static_cast<float>(ctx.out_deg[col.src[k]]) +
                          1.0f;
                      float norm = 1.0f / std::sqrt(d_src * d_dst);
                      scale_row(out, x_src, norm, dim);
                  });
}

void
GcnLayer::transform(const float *x_self, const float *agg, NodeId node,
                    const LayerContext &ctx, float *out) const
{
    // Self-loop term: x_i / (deg_i + 1).
    float d_hat = static_cast<float>(ctx.in_deg[node]) + 1.0f;
    const float scale = 1.0f / d_hat;
    ScratchRow combined(linear_.in_dim());
    for (std::size_t i = 0; i < linear_.in_dim(); ++i)
        combined[i] = agg[i] + scale * x_self[i];
    linear_.forward(combined.data(), out);
    apply_activation(out, linear_.out_dim(), act_);
}

} // namespace flowgnn
