#include "nn/aggregator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace flowgnn {

namespace {

constexpr float kStdEps = 1e-5f;
constexpr float kNegInf = -std::numeric_limits<float>::infinity();
constexpr float kPosInf = std::numeric_limits<float>::infinity();

} // namespace

const char *
aggregator_name(AggregatorKind kind)
{
    switch (kind) {
      case AggregatorKind::kSum: return "sum";
      case AggregatorKind::kMean: return "mean";
      case AggregatorKind::kMax: return "max";
      case AggregatorKind::kMin: return "min";
      case AggregatorKind::kPna: return "pna";
      case AggregatorKind::kDgn: return "dgn";
    }
    return "unknown";
}

Aggregator::Aggregator(AggregatorKind kind, std::size_t msg_dim)
    : kind_(kind), msg_dim_(msg_dim)
{
    if (kind == AggregatorKind::kDgn && msg_dim % 2 != 0)
        throw std::invalid_argument("Aggregator: DGN msg_dim must be even");
}

std::size_t
Aggregator::state_dim() const
{
    switch (kind_) {
      case AggregatorKind::kSum:
        return msg_dim_;
      case AggregatorKind::kMean:
      case AggregatorKind::kMax:
      case AggregatorKind::kMin:
      case AggregatorKind::kDgn:
        return 1 + msg_dim_; // count + payload
      case AggregatorKind::kPna:
        return 1 + 4 * msg_dim_; // count + sum + sumsq + max + min
    }
    return msg_dim_;
}

std::size_t
Aggregator::out_dim() const
{
    switch (kind_) {
      case AggregatorKind::kPna:
        // 4 aggregators (mean, std, max, min) x 3 scalers.
        return 12 * msg_dim_;
      default:
        return msg_dim_;
    }
}

void
Aggregator::init(float *state) const
{
    switch (kind_) {
      case AggregatorKind::kSum:
        std::fill(state, state + msg_dim_, 0.0f);
        break;
      case AggregatorKind::kMean:
      case AggregatorKind::kDgn:
        std::fill(state, state + 1 + msg_dim_, 0.0f);
        break;
      case AggregatorKind::kMax:
        state[0] = 0.0f;
        std::fill(state + 1, state + 1 + msg_dim_, kNegInf);
        break;
      case AggregatorKind::kMin:
        state[0] = 0.0f;
        std::fill(state + 1, state + 1 + msg_dim_, kPosInf);
        break;
      case AggregatorKind::kPna: {
        state[0] = 0.0f;
        float *sum = state + 1;
        float *sumsq = sum + msg_dim_;
        float *mx = sumsq + msg_dim_;
        float *mn = mx + msg_dim_;
        std::fill(sum, sum + msg_dim_, 0.0f);
        std::fill(sumsq, sumsq + msg_dim_, 0.0f);
        std::fill(mx, mx + msg_dim_, kNegInf);
        std::fill(mn, mn + msg_dim_, kPosInf);
        break;
      }
    }
}

void
Aggregator::finalize(const float *state, std::uint32_t degree,
                     const PnaParams &params, float *out) const
{
    switch (kind_) {
      case AggregatorKind::kSum:
        std::copy(state, state + msg_dim_, out);
        return;
      case AggregatorKind::kMean: {
        float count = std::max(state[0], 1.0f);
        for (std::size_t i = 0; i < msg_dim_; ++i)
            out[i] = state[1 + i] / count;
        return;
      }
      case AggregatorKind::kMax:
      case AggregatorKind::kMin:
        for (std::size_t i = 0; i < msg_dim_; ++i)
            out[i] = state[0] > 0.0f ? state[1 + i] : 0.0f;
        return;
      case AggregatorKind::kDgn: {
        // First half: mean aggregator. Second half: |directional sum|.
        float count = std::max(state[0], 1.0f);
        std::size_t half = msg_dim_ / 2;
        for (std::size_t i = 0; i < half; ++i)
            out[i] = state[1 + i] / count;
        for (std::size_t i = half; i < msg_dim_; ++i)
            out[i] = std::abs(state[1 + i]);
        return;
      }
      case AggregatorKind::kPna: {
        // Block order [identity, amplification, attenuation] x [mean,
        // std, max, min]; the identity block holds the raw statistics.
        float *mean = out;
        float *stdv = mean + msg_dim_;
        float *mx = stdv + msg_dim_;
        float *mn = mx + msg_dim_;
        const std::size_t block = 4 * msg_dim_;
        std::fill(out, out + block, 0.0f);
        float count = state[0];
        if (count > 0.0f) {
            const float *sum = state + 1;
            const float *sumsq = sum + msg_dim_;
            const float *smax = sumsq + msg_dim_;
            const float *smin = smax + msg_dim_;
            for (std::size_t i = 0; i < msg_dim_; ++i) {
                mean[i] = sum[i] / count;
                float var = sumsq[i] / count - mean[i] * mean[i];
                stdv[i] = std::sqrt(std::max(var, 0.0f) + kStdEps);
                mx[i] = smax[i];
                mn[i] = smin[i];
            }
        }
        // Scalers (paper Eq. 3); the identity scaler is exact.
        float logd = std::log(static_cast<float>(degree) + 1.0f);
        float amp = logd / params.delta;
        float att = logd > 0.0f ? params.delta / logd : 1.0f;
        for (std::size_t i = 0; i < block; ++i) {
            out[block + i] = amp * out[i];
            out[2 * block + i] = att * out[i];
        }
        return;
      }
    }
}

} // namespace flowgnn
