#include "tensor/linear.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace flowgnn {

Linear::Linear(std::size_t in_dim, std::size_t out_dim)
    : in_dim_(in_dim), out_dim_(out_dim), weight_(out_dim, in_dim),
      bias_(out_dim, 0.0f)
{
}

void
Linear::init_glorot(Rng &rng)
{
    double limit = std::sqrt(6.0 / static_cast<double>(in_dim_ + out_dim_));
    for (std::size_t o = 0; o < out_dim_; ++o)
        for (std::size_t i = 0; i < in_dim_; ++i)
            weight_(o, i) = static_cast<float>(rng.uniform(-limit, limit));
    for (auto &b : bias_)
        b = static_cast<float>(rng.uniform(-limit, limit) * 0.1);
}

Vec
Linear::forward(const Vec &x) const
{
    if (x.size() != in_dim_)
        throw std::invalid_argument("Linear: input dimension mismatch");
    Vec out(out_dim_);
    forward(x.data(), out.data());
    return out;
}

void
Linear::forward(const float *x, float *out) const
{
    // accumulate() over the full range, from the bias.
    std::copy(bias_.begin(), bias_.end(), out);
    for (std::size_t i = 0; i < in_dim_; ++i) {
        float xi = x[i];
        for (std::size_t o = 0; o < out_dim_; ++o)
            out[o] += weight_(o, i) * xi;
    }
}

void
Linear::accumulate(Vec &acc, const Vec &x, std::size_t begin,
                   std::size_t end) const
{
    if (x.size() != in_dim_)
        throw std::invalid_argument("Linear: input dimension mismatch");
    if (acc.size() != out_dim_)
        throw std::invalid_argument("Linear: accumulator dimension mismatch");
    if (end > x.size() || begin > end)
        throw std::invalid_argument("Linear: bad accumulate range");
    // Input-stationary: each input element updates the entire output
    // vector, mirroring the NT unit's accumulate phase.
    for (std::size_t i = begin; i < end; ++i) {
        float xi = x[i];
        for (std::size_t o = 0; o < out_dim_; ++o)
            acc[o] += weight_(o, i) * xi;
    }
}

} // namespace flowgnn
