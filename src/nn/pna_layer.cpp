#include "nn/pna_layer.h"

#include <algorithm>

namespace flowgnn {

PnaLayer::PnaLayer(std::size_t dim, std::size_t edge_dim, Activation act,
                   Rng &rng)
    : dim_(dim), edge_dim_(edge_dim), mix_(13 * dim, dim), act_(act)
{
    if (edge_dim_ > 0) {
        edge_enc_ = Linear(edge_dim_, dim);
        edge_enc_.init_glorot(rng);
    }
    mix_.init_glorot(rng);
}

void
PnaLayer::gather(const InEdges &col, const MessageInputs &in,
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
PnaLayer::transform_rows(const float *x, const float *agg, NodeId,
                         std::size_t count, const LayerContext &,
                         float *out) const
{
    // [x_self || 12 aggregates] through the mixing layer.
    const std::size_t width = 13 * dim_;
    ScratchRow combined(Linear::kTileRows * width);
    for_row_tiles(count, [&](std::size_t r0, std::size_t n) {
        for (std::size_t r = 0; r < n; ++r) {
            const float *xs = x + (r0 + r) * dim_;
            const float *a = agg + (r0 + r) * 12 * dim_;
            float *c = combined.data() + r * width;
            std::copy(xs, xs + dim_, c);
            std::copy(a, a + 12 * dim_, c + dim_);
        }
        mix_.forward_rows(combined.data(), out + r0 * dim_, n);
    });
    apply_activation(out, count * dim_, act_);
}

} // namespace flowgnn
