#include "nn/gin_layer.h"

#include <algorithm>

#include "tensor/ops.h"

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
GinLayer::message(const float *x_src, const float *edge_feat,
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
GinLayer::transform(const Vec &x_self, const Vec &agg, NodeId,
                    const LayerContext &) const
{
    Vec combined = agg;
    axpy_inplace(combined, 1.0f + eps_, x_self);
    Vec out = mlp_.forward(combined);
    apply_activation(out, act_);
    return out;
}

} // namespace flowgnn
