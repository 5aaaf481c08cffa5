#include "nn/dgn_layer.h"

#include <algorithm>
#include <stdexcept>

namespace flowgnn {

DgnLayer::DgnLayer(std::size_t dim, std::size_t edge_dim, Activation act,
                   Rng &rng)
    : dim_(dim), edge_dim_(edge_dim), mix_(3 * dim, dim), act_(act)
{
    if (edge_dim_ > 0) {
        edge_enc_ = Linear(edge_dim_, dim);
        edge_enc_.init_glorot(rng);
    }
    mix_.init_glorot(rng);
}

void
DgnLayer::gather(const InEdges &col, const MessageInputs &in,
                 const LayerContext &ctx, float *state) const
{
    if (col.count == 0)
        return;
    if (ctx.dgn_field == nullptr)
        throw std::invalid_argument("DgnLayer: sample has no dgn_field");
    const bool edges = in.has_edge_rows(col, edge_dim_);
    const float u_dst = ctx.dgn_field[col.dst];
    const float norm = ctx.dgn_norm[col.dst];
    fold_messages(aggregator(), in.fixed, state, col.count,
                  [&](std::size_t k, float *out) {
                      // out = [m, w*m] with m = x (+ EdgeEnc(e)), built
                      // in place.
                      const float *x_src = in.x_row(col, k, dim_);
                      if (edges) {
                          edge_enc_.forward(in.edge_row(col, k), out);
                          for (std::size_t i = 0; i < dim_; ++i)
                              out[i] = x_src[i] + out[i];
                      } else {
                          std::copy(x_src, x_src + dim_, out);
                      }
                      // Directional weight from the vector field,
                      // normalized at the destination (anisotropic:
                      // depends on both endpoints).
                      float w =
                          (ctx.dgn_field[col.src[k]] - u_dst) / norm;
                      for (std::size_t i = 0; i < dim_; ++i)
                          out[dim_ + i] = w * out[i];
                  });
}

void
DgnLayer::transform_rows(const float *x, const float *agg, NodeId,
                         std::size_t count, const LayerContext &,
                         float *out) const
{
    // [x_self || mean || dir] through the mixing layer.
    const std::size_t width = 3 * dim_;
    ScratchRow combined(Linear::kTileRows * width);
    for_row_tiles(count, [&](std::size_t r0, std::size_t n) {
        for (std::size_t r = 0; r < n; ++r) {
            const float *xs = x + (r0 + r) * dim_;
            const float *a = agg + (r0 + r) * 2 * dim_;
            float *c = combined.data() + r * width;
            std::copy(xs, xs + dim_, c);
            std::copy(a, a + 2 * dim_, c + dim_);
        }
        mix_.forward_rows(combined.data(), out + r0 * dim_, n);
    });
    apply_activation(out, count * dim_, act_);
}

} // namespace flowgnn
