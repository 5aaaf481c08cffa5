#include "nn/gin_layer.h"

#include <algorithm>

namespace flowgnn {

GinLayer::GinLayer(std::size_t dim, std::size_t edge_dim, Activation act,
                   Rng &rng)
    : dim_(dim), edge_dim_(edge_dim),
      mlp_({dim, 2 * dim, dim}, Activation::kRelu, Activation::kIdentity),
      act_(act)
{
    if (edge_dim_ > 0) {
        edge_enc_ = Linear(edge_dim_, dim);
        edge_enc_.init_glorot(rng);
    }
    mlp_.init_glorot(rng);
}

void
GinLayer::gather(const InEdges &col, const MessageInputs &in,
                 const LayerContext &, float *state) const
{
    const bool edges = in.has_edge_rows(col, edge_dim_);
    fold_messages(aggregator(), in.fixed, state, col.count,
                  [&](std::size_t k, float *out) {
                      const float *x_src = in.x_row(col, k, dim_);
                      if (edges) {
                          // x + EdgeEnc(e), the encoding built in place
                          // (float addition commutes exactly).
                          edge_enc_.forward(in.edge_row(col, k), out);
                          for (std::size_t i = 0; i < dim_; ++i)
                              out[i] = x_src[i] + out[i];
                      } else {
                          std::copy(x_src, x_src + dim_, out);
                      }
                      apply_activation(out, dim_, Activation::kRelu);
                  });
}

void
GinLayer::transform_rows(const float *x, const float *agg, NodeId,
                         std::size_t count, const LayerContext &,
                         float *out) const
{
    const float scale = 1.0f + eps_;
    ScratchRow combined(Linear::kTileRows * dim_);
    for_row_tiles(count, [&](std::size_t r0, std::size_t n) {
        const std::size_t base = r0 * dim_;
        for (std::size_t i = 0; i < n * dim_; ++i)
            combined[i] = agg[base + i] + scale * x[base + i];
        mlp_.forward_rows(combined.data(), out + base, n);
    });
    apply_activation(out, count * dim_, act_);
}

} // namespace flowgnn
