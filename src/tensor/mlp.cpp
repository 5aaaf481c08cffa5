#include "tensor/mlp.h"

#include <algorithm>
#include <stdexcept>

namespace flowgnn {

Mlp::Mlp(const std::vector<std::size_t> &dims, Activation hidden_activation,
         Activation final_activation)
    : hidden_activation_(hidden_activation),
      final_activation_(final_activation)
{
    if (dims.size() < 2)
        throw std::invalid_argument("Mlp: need at least two dims");
    for (std::size_t i = 0; i + 1 < dims.size(); ++i)
        layers_.emplace_back(dims[i], dims[i + 1]);
}

void
Mlp::init_glorot(Rng &rng)
{
    for (auto &layer : layers_)
        layer.init_glorot(rng);
}

Vec
Mlp::forward(const Vec &x) const
{
    if (x.size() != in_dim())
        throw std::invalid_argument("Mlp: input dimension mismatch");
    Vec out(out_dim());
    forward(x.data(), out.data());
    return out;
}

void
Mlp::forward(const float *x, float *out) const
{
    forward_rows(x, out, 1);
}

void
Mlp::forward_rows(const float *x, float *out, std::size_t rows) const
{
    // Each tile of rows runs through every layer before the next tile,
    // its hidden activations ping-ponging between two tiles of the
    // widest hidden layer; the last layer writes `out`.
    constexpr std::size_t kTile = Linear::kTileRows;
    std::size_t width = 0;
    for (std::size_t i = 0; i + 1 < layers_.size(); ++i)
        width = std::max(width, layers_[i].out_dim());
    ScratchRow ping(kTile * width);
    ScratchRow pong(kTile * width);
    for (std::size_t r0 = 0; r0 < rows; r0 += kTile) {
        const std::size_t n = std::min(kTile, rows - r0);
        const float *h = x + r0 * in_dim();
        for (std::size_t i = 0; i < layers_.size(); ++i) {
            const bool is_last = (i + 1 == layers_.size());
            float *next = is_last ? out + r0 * out_dim()
                                  : (i % 2 == 0 ? ping : pong).data();
            layers_[i].forward_rows(h, next, n);
            apply_activation(next, n * layers_[i].out_dim(),
                             is_last ? final_activation_
                                     : hidden_activation_);
            h = next;
        }
    }
}

std::size_t
Mlp::in_dim() const
{
    return layers_.empty() ? 0 : layers_.front().in_dim();
}

std::size_t
Mlp::out_dim() const
{
    return layers_.empty() ? 0 : layers_.back().out_dim();
}

std::size_t
Mlp::macs() const
{
    std::size_t total = 0;
    for (const auto &layer : layers_)
        total += layer.macs();
    return total;
}

} // namespace flowgnn
