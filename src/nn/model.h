/**
 * @file
 * GNN model: encoder + stack of message-passing layers + global mean
 * pooling + prediction head.
 */
#ifndef FLOWGNN_NN_MODEL_H
#define FLOWGNN_NN_MODEL_H

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "tensor/mlp.h"

namespace flowgnn {

/** The six paper models plus the Table VIII GCN configuration. */
enum class ModelKind {
    kGcn,   ///< 5 layers, dim 100 (SpMM-expressible family)
    kGin,   ///< 5 layers, dim 100, edge embeddings
    kGinVn, ///< GIN + virtual node
    kGat,   ///< 5 layers, 4 heads x 16
    kPna,   ///< 4 layers, dim 80, multi-aggregation
    kDgn,   ///< 4 layers, dim 100, directional aggregation
    kGcn16, ///< 2 layers, dim 16 (I-GCN/AWB-GCN comparison config)
    kSage,  ///< GraphSAGE: runs on the GIN-family kernels (Sec. V)
    kSgc,   ///< simplified GCN: K propagation hops + linear head
};

/** All paper-evaluated kinds (excludes the Table VIII config). */
inline constexpr ModelKind kPaperModels[] = {
    ModelKind::kGin, ModelKind::kGinVn, ModelKind::kGcn,
    ModelKind::kGat, ModelKind::kPna,   ModelKind::kDgn,
};

/** Human-readable model name. */
const char *model_name(ModelKind kind);

/** Graph-level readout over the final node embeddings. */
enum class PoolingKind {
    kMean, ///< global average pooling (all paper models)
    kSum,
    kMax,
};

/** Human-readable pooling name. */
const char *pooling_name(PoolingKind kind);

/**
 * A complete graph-level GNN.
 *
 * Construction via make_model() yields the exact paper configurations
 * (Sec. VI-A). The class is also directly constructible from custom
 * components — the programming model's "NewGNN in a few lines" path
 * (paper Sec. V); see examples/custom_gnn.cpp.
 */
class Model
{
  public:
    /** Assembles a model from components (custom-GNN path). */
    Model(std::string name, std::vector<std::unique_ptr<Layer>> stages,
          Mlp head, bool uses_virtual_node = false,
          bool needs_dgn_field = false);

    const std::string &name() const { return name_; }
    bool uses_virtual_node() const { return uses_virtual_node_; }
    bool needs_dgn_field() const { return needs_dgn_field_; }

    /** Pipeline stages: encoder first, then each conv layer. */
    std::size_t num_stages() const { return stages_.size(); }
    const Layer &stage(std::size_t i) const { return *stages_.at(i); }
    const Mlp &head() const { return head_; }

    /** Final node embedding dimension (pooling input). */
    std::size_t embedding_dim() const;

    /** PNA scaler parameters shared by all layers. */
    const PnaParams &pna_params() const { return pna_; }
    void set_pna_params(const PnaParams &p) { pna_ = p; }

    /**
     * Model-specific sample preparation: appends the virtual node if
     * the model uses one and computes the DGN field if required but
     * missing. Deterministic. The engine and the reference both run on
     * the prepared sample. Throws std::invalid_argument on a sample
     * that is not consistent(); a consistent sample prepares to a
     * consistent one.
     */
    GraphSample prepare(const GraphSample &sample) const;

    /**
     * Reference executor: the final node embeddings
     * [num_nodes x embedding_dim] of a prepared sample, from the
     * functional kernel on one thread (src-major gather order). It is
     * defined with the kernel in core/functional.cpp.
     */
    Matrix reference_embeddings(const GraphSample &prepared) const;

    /** Graph-level prediction: pooling over embedding rows
     * [0, pool_nodes) followed by the head. */
    float readout(const Matrix &embeddings, NodeId pool_nodes) const;

    /** Readout over embedding rows [0, pool_nodes) with pooling(). */
    Vec global_pool(const Matrix &embeddings, NodeId pool_nodes) const;

    /** Graph-level readout kind (mean for all paper configs). */
    PoolingKind pooling() const { return pooling_; }
    void set_pooling(PoolingKind kind) { pooling_ = kind; }

    /** End-to-end reference prediction (prepares internally). */
    float predict(const GraphSample &sample) const;

    /** Total multiply-accumulates for one sample (cost models). */
    std::size_t macs(const GraphSample &prepared) const;

  private:
    std::string name_;
    std::vector<std::unique_ptr<Layer>> stages_;
    Mlp head_;
    bool uses_virtual_node_ = false;
    bool needs_dgn_field_ = false;
    PnaParams pna_;
    PoolingKind pooling_ = PoolingKind::kMean;
};

/**
 * Builds one of the paper's model configurations.
 *
 * @param kind      which model
 * @param node_dim  raw node feature count of the target dataset
 * @param edge_dim  raw edge feature count (0 if the dataset has none)
 * @param seed      weight initialization seed
 */
Model make_model(ModelKind kind, std::size_t node_dim, std::size_t edge_dim,
                 std::uint64_t seed = 7);

} // namespace flowgnn

#endif // FLOWGNN_NN_MODEL_H
