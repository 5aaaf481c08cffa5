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
PnaLayer::message(const float *x_src, const float *edge_feat,
                  std::size_t edge_dim, NodeId, NodeId,
                  const LayerContext &, float *out) const
{
    if (edge_dim_ > 0 && edge_feat != nullptr && edge_dim == edge_dim_) {
        // x + EdgeEnc(e), the encoding built in place (float addition
        // commutes exactly).
        edge_enc_.forward(edge_feat, out);
        for (std::size_t i = 0; i < dim_; ++i)
            out[i] = x_src[i] + out[i];
    } else {
        std::copy(x_src, x_src + dim_, out);
    }
    apply_activation(out, dim_, Activation::kRelu);
}

Vec
PnaLayer::transform(const Vec &x_self, const Vec &agg, NodeId,
                    const LayerContext &) const
{
    Vec combined;
    combined.reserve(13 * dim_);
    combined.insert(combined.end(), x_self.begin(), x_self.end());
    combined.insert(combined.end(), agg.begin(), agg.end());
    Vec out = mix_.forward(combined);
    apply_activation(out, act_);
    return out;
}

} // namespace flowgnn
