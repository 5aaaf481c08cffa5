/**
 * @file
 * The FlowGNN programming model (paper Sec. V / Listing 1): building
 * an accelerator for a brand-new GNN by writing only the layer kernel.
 *
 * "Alice" reads a paper proposing NewGNN — max-aggregation over
 * edge-conditioned messages with a gated update — which no accelerator
 * supports. She subclasses Layer, filling in exactly the pieces that
 * Listing 1 highlights (the message function phi, the aggregator
 * choice, and the node transformation gamma); the message-passing
 * skeleton, multi-queue dataflow, multicast adapter, and parallelism
 * machinery all come from the framework unchanged.
 */
#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/engine.h"
#include "datasets/dataset.h"
#include "nn/encoder_layer.h"
#include "tensor/ops.h"

using namespace flowgnn;

namespace {

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

    // Line 14-17: the per-edge message function, written into the
    // framework's msg_dim()-float buffer.
    void
    message(const float *x_src, const float *edge_feat,
            std::size_t edge_dim, NodeId, NodeId, const LayerContext &,
            float *out) const override
    {
        std::copy(x_src, x_src + dim_, out);
        if (edge_dim_ > 0 && edge_feat != nullptr &&
            edge_dim == edge_dim_) {
            Vec e(dim_);
            edge_enc_.forward(edge_feat, e.data());
            for (std::size_t i = 0; i < dim_; ++i)
                out[i] += e[i];
        }
        apply_activation(out, dim_, Activation::kRelu);
    }

    // Line 10-13: the node transformation.
    Vec
    transform(const Vec &x_self, const Vec &agg, NodeId,
              const LayerContext &) const override
    {
        Vec mixed = mix_.forward(agg);
        Vec gate_in = concat({x_self, agg});
        Vec gate = gate_.forward(gate_in);
        apply_activation(gate, Activation::kSigmoid);
        Vec out(dim_);
        for (std::size_t i = 0; i < dim_; ++i)
            out[i] = gate[i] * x_self[i] + (1.0f - gate[i]) * mixed[i];
        return out;
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

} // namespace

int
main()
{
    GraphSample sample = make_sample(DatasetKind::kMolHiv, 11);
    const std::size_t dim = 64;

    // Assemble NewGNN: encoder + 3 custom layers + regression head.
    Rng rng(2024);
    std::vector<std::unique_ptr<Layer>> stages;
    stages.push_back(std::make_unique<EncoderLayer>(sample.node_dim(),
                                                    dim, rng));
    for (int l = 0; l < 3; ++l)
        stages.push_back(std::make_unique<NewGnnLayer>(
            dim, sample.edge_dim(), rng));
    Mlp head({dim, 32, 1}, Activation::kRelu);
    head.init_glorot(rng);
    Model new_gnn("NewGNN", std::move(stages), std::move(head));

    // Deploy on the unchanged FlowGNN skeleton and sweep parallelism.
    std::printf("NewGNN (max-aggregation, gated update) on FlowGNN:\n\n");
    std::printf("%-24s | %10s | %10s\n", "Config", "cycles", "ms");
    for (auto [pn, pe, pa, ps] :
         {std::tuple{1u, 1u, 1u, 1u}, {2u, 4u, 2u, 2u},
          {2u, 4u, 4u, 8u}, {4u, 8u, 8u, 8u}}) {
        EngineConfig cfg;
        cfg.p_node = pn;
        cfg.p_edge = pe;
        cfg.p_apply = pa;
        cfg.p_scatter = ps;
        Engine engine(new_gnn, cfg);
        RunResult r = engine.run(sample);
        std::printf("%-24s | %10llu | %10.4f\n", cfg.label().c_str(),
                    static_cast<unsigned long long>(
                        r.stats.total_cycles),
                    r.latency_ms());
    }

    // The framework's functional guarantee applies to custom layers
    // too: cross-check against the reference executor.
    Engine engine(new_gnn, EngineConfig{});
    RunResult r = engine.run(sample);
    float ref = new_gnn.predict(sample);
    std::printf("\nEngine %.6f vs reference %.6f (|diff| = %.2e)\n",
                r.prediction, ref, std::abs(r.prediction - ref));
    return std::abs(r.prediction - ref) < 1e-3f ? 0 : 1;
}
