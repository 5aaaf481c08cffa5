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
    // Hidden activations ping-pong between two rows of the widest
    // hidden layer; the last layer writes `out`.
    std::size_t width = 0;
    for (std::size_t i = 0; i + 1 < layers_.size(); ++i)
        width = std::max(width, layers_[i].out_dim());
    ScratchRow ping(width);
    ScratchRow pong(width);
    const float *h = x;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const bool is_last = (i + 1 == layers_.size());
        float *next = is_last ? out : (i % 2 == 0 ? ping : pong).data();
        layers_[i].forward(h, next);
        apply_activation(next, layers_[i].out_dim(),
                         is_last ? final_activation_ : hidden_activation_);
        h = next;
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
