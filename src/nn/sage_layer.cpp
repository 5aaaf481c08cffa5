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
SageLayer::transform_rows(const float *x, const float *agg, NodeId,
                          std::size_t count, const LayerContext &,
                          float *out) const
{
    const std::size_t in = self_.in_dim();
    const std::size_t dim = self_.out_dim();
    self_.forward_rows(x, out, count);
    ScratchRow nbr(Linear::kTileRows * dim);
    for_row_tiles(count, [&](std::size_t r0, std::size_t n) {
        nbr_.forward_rows(agg + r0 * in, nbr.data(), n);
        add_row(out + r0 * dim, nbr.data(), n * dim);
    });
    apply_activation(out, count * dim, act_);
}

} // namespace flowgnn
