#include "nn/gat_layer.h"

#include <algorithm>
#include <cmath>

namespace flowgnn {

GatLayer::GatLayer(std::size_t in_dim, std::size_t num_heads,
                   std::size_t head_dim, Activation act, Rng &rng)
    : heads_(num_heads), head_dim_(head_dim),
      proj_(in_dim, num_heads * head_dim), att_src_(num_heads, head_dim),
      att_dst_(num_heads, head_dim), act_(act)
{
    proj_.init_glorot(rng);
    double limit = std::sqrt(6.0 / static_cast<double>(head_dim + 1));
    for (std::size_t h = 0; h < heads_; ++h) {
        for (std::size_t d = 0; d < head_dim_; ++d) {
            att_src_(h, d) = static_cast<float>(rng.uniform(-limit, limit));
            att_dst_(h, d) = static_cast<float>(rng.uniform(-limit, limit));
        }
    }
}

void
GatLayer::src_scores(const float *h, float *out) const
{
    for (std::size_t hd = 0; hd < heads_; ++hd) {
        float acc = 0.0f;
        for (std::size_t d = 0; d < head_dim_; ++d)
            acc += att_src_(hd, d) * h[hd * head_dim_ + d];
        out[hd] = acc;
    }
}

void
GatLayer::dst_scores(const float *h, float *out) const
{
    for (std::size_t hd = 0; hd < heads_; ++hd) {
        float acc = 0.0f;
        for (std::size_t d = 0; d < head_dim_; ++d)
            acc += att_dst_(hd, d) * h[hd * head_dim_ + d];
        out[hd] = acc;
    }
}

void
GatLayer::transform_rows(const float *x, const float *, NodeId,
                         std::size_t count, const LayerContext &,
                         float *out) const
{
    proj_.forward_rows(x, out, count);
}

void
gat_combine(const GatLayer &layer, const float *h, const float *scores,
            NodeId dst, const NodeId *srcs, std::size_t count, float *out)
{
    const std::size_t heads = layer.num_heads();
    const std::size_t hd = layer.head_dim();
    const std::size_t dim = heads * hd;
    const std::size_t stride = 2 * heads;
    const float *h_dst = h + std::size_t(dst) * dim;
    const float *dst_half = scores + std::size_t(dst) * stride + heads;
    // Node v's logit on head k: its source half plus the destination
    // half, recomputed in each pass rather than stored per edge.
    auto logit = [&](NodeId v, std::size_t k) {
        return leaky_relu(scores[std::size_t(v) * stride + k] + dst_half[k]);
    };

    // Pass 1: per-head running max over {self} u in-neighbors.
    ScratchRow max_score(heads);
    for (std::size_t k = 0; k < heads; ++k)
        max_score[k] = logit(dst, k);
    for (std::size_t j = 0; j < count; ++j)
        for (std::size_t k = 0; k < heads; ++k)
            max_score[k] = std::max(max_score[k], logit(srcs[j], k));

    // Pass 2: exp-weighted sum in arrival order, self term first; the
    // head rows run four lanes at a time.
    ScratchRow denom(heads);
    for (std::size_t k = 0; k < heads; ++k) {
        float w = std::exp(logit(dst, k) - max_score[k]);
        denom[k] = w;
        scale_row(out + k * hd, h_dst + k * hd, w, hd);
    }
    for (std::size_t j = 0; j < count; ++j) {
        const float *h_src = h + std::size_t(srcs[j]) * dim;
        for (std::size_t k = 0; k < heads; ++k) {
            float w = std::exp(logit(srcs[j], k) - max_score[k]);
            denom[k] += w;
            axpy_row(out + k * hd, w, h_src + k * hd, hd);
        }
    }

    for (std::size_t k = 0; k < heads; ++k)
        div_row(out + k * hd, denom[k], hd);
    apply_activation(out, dim, layer.activation());
}

} // namespace flowgnn
