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
GcnLayer::transform_rows(const float *x, const float *agg, NodeId first,
                         std::size_t count, const LayerContext &ctx,
                         float *out) const
{
    const std::size_t dim = linear_.in_dim();
    ScratchRow combined(Linear::kTileRows * dim);
    for_row_tiles(count, [&](std::size_t r0, std::size_t n) {
        for (std::size_t r = 0; r < n; ++r) {
            // Self-loop term: x_i / (deg_i + 1).
            const float d_hat =
                static_cast<float>(ctx.in_deg[first + r0 + r]) + 1.0f;
            const float scale = 1.0f / d_hat;
            const std::size_t row = (r0 + r) * dim;
            for (std::size_t i = 0; i < dim; ++i)
                combined[r * dim + i] = agg[row + i] + scale * x[row + i];
        }
        linear_.forward_rows(combined.data(), out + r0 * linear_.out_dim(),
                             n);
    });
    apply_activation(out, count * linear_.out_dim(), act_);
}

} // namespace flowgnn
