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
    bool uses_edge_features() const override { return edge_dim_ > 0; }

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

    // Line 10-13: the node transformation, written into out_dim()
    // floats.
    void
    transform(const float *x_self, const float *agg, NodeId,
              const LayerContext &, float *out) const override
    {
        ScratchRow mixed(dim_);
        ScratchRow gate_in(2 * dim_);
        ScratchRow gate(dim_);
        mix_.forward(agg, mixed.data());
        std::copy(x_self, x_self + dim_, gate_in.data());
        std::copy(agg, agg + dim_, gate_in.data() + dim_);
        gate_.forward(gate_in.data(), gate.data());
        apply_activation(gate.data(), dim_, Activation::kSigmoid);
        for (std::size_t i = 0; i < dim_; ++i)
            out[i] = gate[i] * x_self[i] + (1.0f - gate[i]) * mixed[i];
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
