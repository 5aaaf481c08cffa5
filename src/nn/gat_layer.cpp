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

Vec
GatLayer::transform(const Vec &x_self, const Vec &, NodeId,
                    const LayerContext &) const
{
    Vec h = project(x_self);
    return gat_combine(*this, h.data(), {});
}

Vec
gat_combine(const GatLayer &layer, const float *h_dst,
            const std::vector<const float *> &h_srcs)
{
    const std::size_t heads = layer.num_heads();
    const std::size_t hd = layer.head_dim();
    const std::size_t m = h_srcs.size();

    // Logits: row 0 the self term, row 1 + j in-neighbor j. The
    // destination half is shared by every row, so it is computed once.
    Vec dst(heads);
    layer.dst_scores(h_dst, dst.data());
    Vec logit((m + 1) * heads);
    for (std::size_t j = 0; j <= m; ++j) {
        float *row = logit.data() + j * heads;
        layer.src_scores(j == 0 ? h_dst : h_srcs[j - 1], row);
        for (std::size_t h = 0; h < heads; ++h)
            row[h] = activate(row[h] + dst[h], Activation::kLeakyRelu);
    }

    // Pass 1: per-head running max over {self} u in-neighbors.
    Vec max_score(logit.begin(), logit.begin() + heads);
    for (std::size_t j = 1; j <= m; ++j)
        for (std::size_t h = 0; h < heads; ++h)
            max_score[h] = std::max(max_score[h], logit[j * heads + h]);

    // Pass 2: exp-weighted sum in arrival order, self term first.
    Vec acc(heads * hd);
    Vec denom(heads);
    for (std::size_t h = 0; h < heads; ++h) {
        float w = std::exp(logit[h] - max_score[h]);
        denom[h] = w;
        for (std::size_t d = 0; d < hd; ++d)
            acc[h * hd + d] = w * h_dst[h * hd + d];
    }
    for (std::size_t j = 0; j < m; ++j) {
        const float *row = logit.data() + (j + 1) * heads;
        for (std::size_t h = 0; h < heads; ++h) {
            float w = std::exp(row[h] - max_score[h]);
            denom[h] += w;
            for (std::size_t d = 0; d < hd; ++d)
                acc[h * hd + d] += w * h_srcs[j][h * hd + d];
        }
    }

    for (std::size_t h = 0; h < heads; ++h)
        for (std::size_t d = 0; d < hd; ++d)
            acc[h * hd + d] /= denom[h];
    apply_activation(acc, layer.activation());
    return acc;
}

} // namespace flowgnn
