/**
 * @file
 * GraphSample: a graph together with its node/edge features — the unit
 * of work streamed into the accelerator at batch size 1.
 */
#ifndef FLOWGNN_GRAPH_SAMPLE_H
#define FLOWGNN_GRAPH_SAMPLE_H

#include "graph/graph.h"
#include "tensor/matrix.h"

namespace flowgnn {

/**
 * One inference work item: the raw COO graph plus dense node features
 * [num_nodes x node_dim], optional edge features [num_edges x
 * edge_dim], an optional per-node scalar field (Laplacian eigenvector
 * values consumed by DGN), and bookkeeping for virtual-node handling.
 */
struct GraphSample {
    CooGraph graph;
    Matrix node_features; ///< [graph.num_nodes x F]
    Matrix edge_features; ///< [graph.num_edges x De]; 0 cols if none.
    /**
     * Number of "real" nodes for pooling. Virtual nodes appended by
     * add_virtual_node are excluded from global pooling, matching the
     * OGB convention. Defaults to all nodes.
     */
    NodeId num_pool_nodes = 0;
    /** Per-node scalar field u (Laplacian eigenvector) for DGN. */
    Vec dgn_field;
    /**
     * Optional full-graph degree overrides, one entry per node when
     * non-empty. Degree-normalized layers (GCN/SGC) read degrees from
     * these instead of counting `graph`'s edges. A graph file may
     * carry them (an extracted subgraph keeps its parent's degrees),
     * as distributed GNN systems ship ghost-vertex degrees.
     */
    std::vector<std::uint32_t> true_in_deg;
    std::vector<std::uint32_t> true_out_deg;
    /** Synthetic regression target used by examples. */
    float label = 0.0f;

    NodeId num_nodes() const { return graph.num_nodes; }
    std::size_t num_edges() const { return graph.num_edges(); }
    std::size_t node_dim() const { return node_features.cols(); }
    std::size_t edge_dim() const { return edge_features.cols(); }

    NodeId
    pool_nodes() const
    {
        return num_pool_nodes == 0 ? graph.num_nodes : num_pool_nodes;
    }

    /** Structural sanity checks (feature rows match graph sizes). */
    bool consistent() const;
};

/**
 * Non-owning view of a sample: a GraphRef plus raw row-major feature
 * pointers. This is the engine-facing twin of GraphSample — every hot
 * path (partitioners, planners, Engine::run_prepared, ghost runs) works
 * off a SampleRef, so an mmap-backed io::GraphView can feed a graph
 * larger than RAM straight into them without copying into a
 * GraphSample. Constructed from a GraphSample it borrows everything;
 * the columnar fields can also be filled directly from mapped sections.
 * Null pointers mean "absent" exactly where GraphSample uses an empty
 * vector/matrix. The backing must outlive every use.
 */
struct SampleRef {
    GraphRef graph;
    /** [num_nodes x node_dim] row-major; null iff node_dim == 0. */
    const float *node_features = nullptr;
    std::size_t node_dim = 0;
    /** [num_edges x edge_dim] row-major; null iff edge_dim == 0. */
    const float *edge_features = nullptr;
    std::size_t edge_dim = 0;
    NodeId num_pool_nodes = 0;
    /** Per-node DGN scalar field (num_nodes entries) or null. */
    const float *dgn_field = nullptr;
    /** Degree overrides (num_nodes entries each) or null. */
    const std::uint32_t *true_in_deg = nullptr;
    const std::uint32_t *true_out_deg = nullptr;
    float label = 0.0f;

    SampleRef() = default;
    SampleRef(const GraphSample &sample);

    NodeId num_nodes() const { return graph.num_nodes(); }
    std::size_t num_edges() const { return graph.num_edges(); }

    NodeId
    pool_nodes() const
    {
        return num_pool_nodes == 0 ? num_nodes() : num_pool_nodes;
    }

    const float *
    node_row(NodeId n) const
    {
        return node_features + std::size_t(n) * node_dim;
    }

    const float *
    edge_row(std::size_t e) const
    {
        return edge_features + e * edge_dim;
    }

    /** Structural sanity checks, mirroring GraphSample::consistent. */
    bool consistent(unsigned threads = 0) const;
};

/**
 * Deterministic N(0, 0.5) feature matrix drawn row-major from
 * Rng(seed) — the one synthetic feature distribution shared by the
 * scale-out benches (bench::with_features), the io loader's generated
 * features, and the graph-writer tools. Living here keeps the three
 * call sites bit-identical by construction instead of by convention.
 */
Matrix gaussian_features(std::size_t rows, std::size_t cols,
                         std::uint64_t seed);

/**
 * Returns a copy of the sample with a virtual node appended: the VN is
 * connected bidirectionally to every node, gets a zero feature row and
 * zero features on its edges, and is excluded from pooling.
 */
GraphSample with_virtual_node(const GraphSample &sample);

/**
 * Appends `count` virtual nodes, each fully connected to every
 * original node (paper Sec. IV notes some models use multiple virtual
 * nodes, escalating the imbalance the dataflow must absorb). Virtual
 * nodes are not connected to each other and are excluded from pooling.
 */
GraphSample with_virtual_nodes(const GraphSample &sample,
                               std::uint32_t count);

} // namespace flowgnn

#endif // FLOWGNN_GRAPH_SAMPLE_H
