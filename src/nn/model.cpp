#include "nn/model.h"

#include <stdexcept>

#include "graph/spectral.h"
#include "nn/dgn_layer.h"
#include "nn/encoder_layer.h"
#include "nn/gat_layer.h"
#include "nn/gcn_layer.h"
#include "nn/gin_layer.h"
#include "nn/pna_layer.h"
#include "nn/sage_layer.h"
#include "nn/sgc_layer.h"

namespace flowgnn {

const char *
model_name(ModelKind kind)
{
    switch (kind) {
      case ModelKind::kGcn: return "GCN";
      case ModelKind::kGin: return "GIN";
      case ModelKind::kGinVn: return "GIN+VN";
      case ModelKind::kGat: return "GAT";
      case ModelKind::kPna: return "PNA";
      case ModelKind::kDgn: return "DGN";
      case ModelKind::kGcn16: return "GCN-16";
      case ModelKind::kSage: return "GraphSAGE";
      case ModelKind::kSgc: return "SGC";
    }
    return "unknown";
}

const char *
pooling_name(PoolingKind kind)
{
    switch (kind) {
      case PoolingKind::kMean: return "mean";
      case PoolingKind::kSum: return "sum";
      case PoolingKind::kMax: return "max";
    }
    return "unknown";
}

Model::Model(std::string name, std::vector<std::unique_ptr<Layer>> stages,
             Mlp head, bool uses_virtual_node, bool needs_dgn_field)
    : name_(std::move(name)), stages_(std::move(stages)),
      head_(std::move(head)), uses_virtual_node_(uses_virtual_node),
      needs_dgn_field_(needs_dgn_field)
{
    if (stages_.empty())
        throw std::invalid_argument("Model: needs at least one stage");
    for (std::size_t i = 0; i + 1 < stages_.size(); ++i) {
        if (stages_[i]->out_dim() != stages_[i + 1]->in_dim())
            throw std::invalid_argument(
                "Model: stage dimension mismatch at stage " +
                std::to_string(i));
    }
    if (head_.in_dim() != stages_.back()->out_dim())
        throw std::invalid_argument("Model: head dimension mismatch");
}

std::size_t
Model::embedding_dim() const
{
    return stages_.back()->out_dim();
}

GraphSample
Model::prepare(const GraphSample &sample) const
{
    // The raw-sample door: the virtual node and the Fiedler vector
    // both read the graph, so it is checked before either runs.
    if (!sample.consistent())
        throw std::invalid_argument("Model: inconsistent sample");
    GraphSample prepared =
        uses_virtual_node_ ? with_virtual_node(sample) : sample;
    if (needs_dgn_field_ && prepared.dgn_field.empty()) {
        Rng rng(0xD6F1E1D); // fixed seed: preparation is deterministic
        prepared.dgn_field = fiedler_vector(prepared.graph, rng);
    }
    return prepared;
}

float
Model::readout(const Matrix &embeddings, NodeId pool_nodes) const
{
    return head_.forward(global_pool(embeddings, pool_nodes))[0];
}

Vec
Model::global_pool(const Matrix &embeddings, NodeId pool_nodes) const
{
    if (pool_nodes == 0 || pool_nodes > embeddings.rows())
        throw std::invalid_argument("global_pool: bad pool_nodes");
    Vec pooled(embeddings.cols(), 0.0f);
    switch (pooling_) {
      case PoolingKind::kMean:
      case PoolingKind::kSum:
        for (NodeId i = 0; i < pool_nodes; ++i)
            for (std::size_t c = 0; c < embeddings.cols(); ++c)
                pooled[c] += embeddings(i, c);
        if (pooling_ == PoolingKind::kMean) {
            float inv = 1.0f / static_cast<float>(pool_nodes);
            for (auto &v : pooled)
                v *= inv;
        }
        break;
      case PoolingKind::kMax:
        for (std::size_t c = 0; c < embeddings.cols(); ++c) {
            float m = embeddings(0, c);
            for (NodeId i = 1; i < pool_nodes; ++i)
                m = std::max(m, embeddings(i, c));
            pooled[c] = m;
        }
        break;
    }
    return pooled;
}

float
Model::predict(const GraphSample &sample) const
{
    GraphSample prepared = prepare(sample);
    return readout(reference_embeddings(prepared), prepared.pool_nodes());
}

std::size_t
Model::macs(const GraphSample &prepared) const
{
    std::size_t total = 0;
    const std::size_t n = prepared.num_nodes();
    const std::size_t e = prepared.num_edges();
    for (const auto &stage : stages_) {
        total += n * stage->transform_macs();
        if (stage->msg_dim() > 0)
            total += e * stage->message_macs() * stage->mp_rounds();
    }
    total += head_.macs();
    return total;
}

namespace {

/** Builds the encoder + L identical conv layers + head. */
template <typename MakeConv>
std::vector<std::unique_ptr<Layer>>
build_stages(std::size_t node_dim, std::size_t hidden, std::size_t layers,
             Rng &rng, MakeConv make_conv)
{
    std::vector<std::unique_ptr<Layer>> stages;
    stages.push_back(
        std::make_unique<EncoderLayer>(node_dim, hidden, rng));
    for (std::size_t l = 0; l < layers; ++l) {
        bool last = (l + 1 == layers);
        stages.push_back(make_conv(last, rng));
    }
    return stages;
}

} // namespace

Model
make_model(ModelKind kind, std::size_t node_dim, std::size_t edge_dim,
           std::uint64_t seed)
{
    Rng rng(seed);
    switch (kind) {
      case ModelKind::kGcn: {
        auto stages = build_stages(node_dim, 100, 5, rng,
            [](bool last, Rng &r) -> std::unique_ptr<Layer> {
                return std::make_unique<GcnLayer>(
                    100, 100,
                    last ? Activation::kIdentity : Activation::kRelu, r);
            });
        Mlp head({100, 1});
        head.init_glorot(rng);
        return Model("GCN", std::move(stages), std::move(head));
      }
      case ModelKind::kGin:
      case ModelKind::kGinVn: {
        auto stages = build_stages(node_dim, 100, 5, rng,
            [edge_dim](bool last, Rng &r) -> std::unique_ptr<Layer> {
                return std::make_unique<GinLayer>(
                    100, edge_dim,
                    last ? Activation::kIdentity : Activation::kRelu, r);
            });
        Mlp head({100, 1});
        head.init_glorot(rng);
        bool vn = (kind == ModelKind::kGinVn);
        return Model(vn ? "GIN+VN" : "GIN", std::move(stages),
                     std::move(head), vn);
      }
      case ModelKind::kGat: {
        auto stages = build_stages(node_dim, 64, 5, rng,
            [](bool last, Rng &r) -> std::unique_ptr<Layer> {
                return std::make_unique<GatLayer>(
                    64, 4, 16,
                    last ? Activation::kIdentity : Activation::kElu, r);
            });
        Mlp head({64, 1});
        head.init_glorot(rng);
        return Model("GAT", std::move(stages), std::move(head));
      }
      case ModelKind::kPna: {
        auto stages = build_stages(node_dim, 80, 4, rng,
            [edge_dim](bool last, Rng &r) -> std::unique_ptr<Layer> {
                return std::make_unique<PnaLayer>(
                    80, edge_dim,
                    last ? Activation::kIdentity : Activation::kRelu, r);
            });
        Mlp head({80, 40, 20, 1}, Activation::kRelu);
        head.init_glorot(rng);
        return Model("PNA", std::move(stages), std::move(head));
      }
      case ModelKind::kDgn: {
        auto stages = build_stages(node_dim, 100, 4, rng,
            [edge_dim](bool last, Rng &r) -> std::unique_ptr<Layer> {
                return std::make_unique<DgnLayer>(
                    100, edge_dim,
                    last ? Activation::kIdentity : Activation::kRelu, r);
            });
        Mlp head({100, 50, 25, 1}, Activation::kRelu);
        head.init_glorot(rng);
        return Model("DGN", std::move(stages), std::move(head),
                     /*uses_virtual_node=*/false, /*needs_dgn_field=*/true);
      }
      case ModelKind::kGcn16: {
        auto stages = build_stages(node_dim, 16, 2, rng,
            [](bool last, Rng &r) -> std::unique_ptr<Layer> {
                return std::make_unique<GcnLayer>(
                    16, 16,
                    last ? Activation::kIdentity : Activation::kRelu, r);
            });
        Mlp head({16, 1});
        head.init_glorot(rng);
        return Model("GCN-16", std::move(stages), std::move(head));
      }
      case ModelKind::kSage: {
        auto stages = build_stages(node_dim, 100, 5, rng,
            [](bool last, Rng &r) -> std::unique_ptr<Layer> {
                return std::make_unique<SageLayer>(
                    100, 100,
                    last ? Activation::kIdentity : Activation::kRelu, r);
            });
        Mlp head({100, 1});
        head.init_glorot(rng);
        return Model("GraphSAGE", std::move(stages), std::move(head));
      }
      case ModelKind::kSgc: {
        // K=2 propagation hops, single linear classifier at the head.
        std::vector<std::unique_ptr<Layer>> stages;
        stages.push_back(
            std::make_unique<EncoderLayer>(node_dim, 100, rng));
        for (int hop = 0; hop < 2; ++hop)
            stages.push_back(std::make_unique<SgcLayer>(100));
        Mlp head({100, 1});
        head.init_glorot(rng);
        return Model("SGC", std::move(stages), std::move(head));
      }
    }
    throw std::invalid_argument("make_model: unknown kind");
}

} // namespace flowgnn
