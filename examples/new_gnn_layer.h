/**
 * @file
 * The NewGNN layer of examples/custom_gnn.cpp — the FlowGNN
 * programming model (paper Sec. V / Listing 1): a brand-new GNN is one
 * Layer subclass, the highlighted lines of Listing 1 (the message
 * function phi, the aggregator choice and the node transformation
 * gamma). Kept in a header so the layer contract tests check it like
 * the built-in layers.
 */
#ifndef FLOWGNN_EXAMPLES_NEW_GNN_LAYER_H
#define FLOWGNN_EXAMPLES_NEW_GNN_LAYER_H

#include <algorithm>

#include "nn/layer.h"
#include "tensor/activations.h"
#include "tensor/linear.h"

namespace flowgnn::examples {

/**
 * NewGNN layer: x_i' = sigmoid(gate) * x_i + (1 - sigmoid(gate)) * W m_i
 * with m_i = max_j ReLU(x_j + EdgeEnc(e_ji)) — only the highlighted
 * lines of Listing 1.
 */
class NewGnnLayer : public Layer
{
  public:
    NewGnnLayer(std::size_t dim, std::size_t edge_dim, Rng &rng)
        : dim_(dim), edge_dim_(edge_dim), mix_(dim, dim),
          gate_(2 * dim, dim)
    {
        if (edge_dim_ > 0) {
            edge_enc_ = Linear(edge_dim_, dim);
            edge_enc_.init_glorot(rng);
        }
        mix_.init_glorot(rng);
        gate_.init_glorot(rng);
    }

    const char *name() const override { return "new-gnn"; }
    std::size_t in_dim() const override { return dim_; }
    std::size_t out_dim() const override { return dim_; }
    std::size_t msg_dim() const override { return dim_; }

    // Line 9 of Listing 1: pick the aggregator.
    AggregatorKind aggregator_kind() const override
    {
        return AggregatorKind::kMax;
    }
    std::size_t edge_dim() const override { return edge_dim_; }

    // Line 14-17: the per-edge message function. fold_messages hands
    // it edge k's msg_dim()-float row and folds the row into the
    // destination's max as soon as it is written.
    void
    gather(const InEdges &col, const MessageInputs &in,
           const LayerContext &, float *state) const override
    {
        const bool edges = in.has_edge_rows(col, edge_dim_);
        fold_messages(aggregator(), in.fixed, state, col.count,
                      [&](std::size_t k, float *out) {
                          const float *x_src = in.x_row(col, k, dim_);
                          std::copy(x_src, x_src + dim_, out);
                          if (edges) {
                              ScratchRow e(dim_);
                              edge_enc_.forward(in.edge_row(col, k),
                                                e.data());
                              for (std::size_t i = 0; i < dim_; ++i)
                                  out[i] += e[i];
                          }
                          apply_activation(out, dim_, Activation::kRelu);
                      });
    }

    // Line 10-13: the node transformation over a block of `count`
    // nodes, one out_dim()-float row each; the Linear passes run a
    // row tile at a time so each weight loads once per tile.
    void
    transform_rows(const float *x, const float *agg, NodeId,
                   std::size_t count, const LayerContext &,
                   float *out) const override
    {
        constexpr std::size_t kTile = Linear::kTileRows;
        ScratchRow mixed(kTile * dim_);
        ScratchRow gate_in(kTile * 2 * dim_);
        ScratchRow gate(kTile * dim_);
        for_row_tiles(count, [&](std::size_t r0, std::size_t n) {
            const float *xs = x + r0 * dim_;
            const float *m = agg + r0 * dim_;
            mix_.forward_rows(m, mixed.data(), n);
            for (std::size_t r = 0; r < n; ++r) {
                float *g = gate_in.data() + r * 2 * dim_;
                std::copy(xs + r * dim_, xs + (r + 1) * dim_, g);
                std::copy(m + r * dim_, m + (r + 1) * dim_, g + dim_);
            }
            gate_.forward_rows(gate_in.data(), gate.data(), n);
            apply_activation(gate.data(), n * dim_, Activation::kSigmoid);
            float *y = out + r0 * dim_;
            for (std::size_t i = 0; i < n * dim_; ++i)
                y[i] = gate[i] * xs[i] + (1.0f - gate[i]) * mixed[i];
        });
    }

    std::vector<std::size_t> nt_pass_dims() const override
    {
        return {dim_, 2 * dim_}; // mix pass + gate pass
    }
    std::size_t transform_macs() const override
    {
        return mix_.macs() + gate_.macs();
    }
    std::size_t message_macs() const override
    {
        return edge_dim_ > 0 ? edge_dim_ * dim_ : 0;
    }

  private:
    std::size_t dim_;
    std::size_t edge_dim_;
    Linear edge_enc_;
    Linear mix_;  ///< W over the aggregated message
    Linear gate_; ///< gating from [x || m]
};

} // namespace flowgnn::examples

#endif // FLOWGNN_EXAMPLES_NEW_GNN_LAYER_H
