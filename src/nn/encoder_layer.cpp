#include "nn/encoder_layer.h"

namespace flowgnn {

EncoderLayer::EncoderLayer(std::size_t in_dim, std::size_t out_dim, Rng &rng)
    : linear_(in_dim, out_dim)
{
    linear_.init_glorot(rng);
}

void
EncoderLayer::transform(const float *x_self, const float *, NodeId,
                        const LayerContext &, float *out) const
{
    linear_.forward(x_self, out);
}

} // namespace flowgnn
