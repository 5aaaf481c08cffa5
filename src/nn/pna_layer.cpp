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
PnaLayer::transform(const float *x_self, const float *agg, NodeId,
                    const LayerContext &, float *out) const
{
    // [x_self || 12 aggregates] through the mixing layer.
    ScratchRow combined(13 * dim_);
    std::copy(x_self, x_self + dim_, combined.data());
    std::copy(agg, agg + 12 * dim_, combined.data() + dim_);
    mix_.forward(combined.data(), out);
    apply_activation(out, dim_, act_);
}

} // namespace flowgnn
