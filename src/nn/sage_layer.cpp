#include "nn/sage_layer.h"

#include <algorithm>

namespace flowgnn {

SageLayer::SageLayer(std::size_t in_dim, std::size_t out_dim,
                     Activation act, Rng &rng)
    : self_(in_dim, out_dim), nbr_(in_dim, out_dim), act_(act)
{
    self_.init_glorot(rng);
    nbr_.init_glorot(rng);
}

void
SageLayer::gather(const InEdges &col, const MessageInputs &in,
                  const LayerContext &, float *state) const
{
    // Raw neighbor embedding; the mean is taken by the aggregator.
    const std::size_t dim = self_.in_dim();
    fold_messages(aggregator(), in.fixed, state, col.count,
                  [&](std::size_t k, float *out) {
                      const float *x_src = in.x_row(col, k, dim);
                      std::copy(x_src, x_src + dim, out);
                  });
}

void
SageLayer::transform(const float *x_self, const float *agg, NodeId,
                     const LayerContext &, float *out) const
{
    const std::size_t dim = self_.out_dim();
    ScratchRow nbr(dim);
    self_.forward(x_self, out);
    nbr_.forward(agg, nbr.data());
    for (std::size_t i = 0; i < dim; ++i)
        out[i] += nbr[i];
    apply_activation(out, dim, act_);
}

} // namespace flowgnn
