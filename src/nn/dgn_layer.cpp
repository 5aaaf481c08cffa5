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
DgnLayer::message(const float *x_src, const float *edge_feat,
                  std::size_t edge_dim, NodeId src, NodeId dst,
                  const LayerContext &ctx, float *out) const
{
    if (ctx.dgn_field == nullptr)
        throw std::invalid_argument("DgnLayer: sample has no dgn_field");

    // out = [m, w*m] with m = x (+ EdgeEnc(e)), built in place.
    if (edge_dim_ > 0 && edge_feat != nullptr && edge_dim == edge_dim_) {
        edge_enc_.forward(edge_feat, out);
        for (std::size_t i = 0; i < dim_; ++i)
            out[i] = x_src[i] + out[i];
    } else {
        std::copy(x_src, x_src + dim_, out);
    }

    // Directional weight from the vector field, normalized at the
    // destination (anisotropic: depends on both endpoints).
    float w = (ctx.dgn_field[src] - ctx.dgn_field[dst]) /
              ctx.dgn_norm[dst];
    for (std::size_t i = 0; i < dim_; ++i)
        out[dim_ + i] = w * out[i];
}

Vec
DgnLayer::transform(const Vec &x_self, const Vec &agg, NodeId,
                    const LayerContext &) const
{
    Vec combined;
    combined.reserve(3 * dim_);
    combined.insert(combined.end(), x_self.begin(), x_self.end());
    combined.insert(combined.end(), agg.begin(), agg.end());
    Vec out = mix_.forward(combined);
    apply_activation(out, act_);
    return out;
}

} // namespace flowgnn
