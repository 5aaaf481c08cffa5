#include "nn/sage_layer.h"

#include <algorithm>

#include "tensor/ops.h"

namespace flowgnn {

SageLayer::SageLayer(std::size_t in_dim, std::size_t out_dim,
                     Activation act, Rng &rng)
    : self_(in_dim, out_dim), nbr_(in_dim, out_dim), act_(act)
{
    self_.init_glorot(rng);
    nbr_.init_glorot(rng);
}

void
SageLayer::message(const float *x_src, const float *, std::size_t, NodeId,
                   NodeId, const LayerContext &, float *out) const
{
    // Raw neighbor embedding; the mean is taken by the aggregator.
    std::copy(x_src, x_src + self_.in_dim(), out);
}

Vec
SageLayer::transform(const Vec &x_self, const Vec &agg, NodeId,
                     const LayerContext &) const
{
    Vec out = self_.forward(x_self);
    add_inplace(out, nbr_.forward(agg));
    apply_activation(out, act_);
    return out;
}

} // namespace flowgnn
