#include "nn/encoder_layer.h"

namespace flowgnn {

EncoderLayer::EncoderLayer(std::size_t in_dim, std::size_t out_dim, Rng &rng)
    : linear_(in_dim, out_dim)
{
    linear_.init_glorot(rng);
}

void
EncoderLayer::transform_rows(const float *x, const float *, NodeId,
                             std::size_t count, const LayerContext &,
                             float *out) const
{
    linear_.forward_rows(x, out, count);
}

} // namespace flowgnn
