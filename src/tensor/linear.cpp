#include "tensor/linear.h"

#include <algorithm>
#include <cmath>
#include <cstring>
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

namespace {

using Lanes = float __attribute__((vector_size(16)));

Lanes
broadcast(float v)
{
    return Lanes{v, v, v, v};
}

} // namespace

void
Linear::forward_rows(const float *x, float *out, std::size_t rows) const
{
    static_assert(sizeof(Lanes) == kTileRows * sizeof(float));
    const std::size_t in = in_dim_;
    const std::size_t od = out_dim_;
    const std::size_t blocked = od - od % 4;
    // tile[i] = input i of each row of a full tile.
    ScratchRow tile(rows >= kTileRows ? kTileRows * in : 0);
    std::size_t r0 = 0;
    for (; r0 + kTileRows <= rows; r0 += kTileRows) {
        const float *xr = x + r0 * in;
        float *yr = out + r0 * od;
        for (std::size_t i = 0; i < in; ++i)
            for (std::size_t r = 0; r < kTileRows; ++r)
                tile[i * kTileRows + r] = xr[r * in + i];
        // Four outputs x four rows: output o + k of row r is lane r of
        // a<k>, which starts at the bias and adds its inputs in index
        // order — forward()'s order per element.
        for (std::size_t o = 0; o < blocked; o += 4) {
            const float *w0 = weight_.row(o);
            const float *w1 = weight_.row(o + 1);
            const float *w2 = weight_.row(o + 2);
            const float *w3 = weight_.row(o + 3);
            Lanes a0 = broadcast(bias_[o]);
            Lanes a1 = broadcast(bias_[o + 1]);
            Lanes a2 = broadcast(bias_[o + 2]);
            Lanes a3 = broadcast(bias_[o + 3]);
            for (std::size_t i = 0; i < in; ++i) {
                Lanes xi;
                std::memcpy(&xi, tile.data() + i * kTileRows, sizeof xi);
                a0 += xi * w0[i];
                a1 += xi * w1[i];
                a2 += xi * w2[i];
                a3 += xi * w3[i];
            }
            const Lanes acc[4] = {a0, a1, a2, a3};
            for (std::size_t k = 0; k < 4; ++k)
                for (std::size_t r = 0; r < kTileRows; ++r)
                    yr[r * od + o + k] = acc[k][r];
        }
        for (std::size_t o = blocked; o < od; ++o) {
            for (std::size_t r = 0; r < kTileRows; ++r) {
                float acc = bias_[o];
                for (std::size_t i = 0; i < in; ++i)
                    acc += weight_(o, i) * xr[r * in + i];
                yr[r * od + o] = acc;
            }
        }
    }
    for (; r0 < rows; ++r0)
        forward(x + r0 * in, out + r0 * od);
}

} // namespace flowgnn
