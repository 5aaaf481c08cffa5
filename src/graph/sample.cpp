#include "graph/sample.h"

#include <stdexcept>
#include <string>

#include "graph/generators.h"
#include "tensor/rng.h"

namespace flowgnn {

Matrix
gaussian_features(std::size_t rows, std::size_t cols,
                  std::uint64_t seed)
{
    Rng rng(seed);
    Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = static_cast<float>(rng.normal(0.0, 0.5));
    return m;
}

namespace {

/**
 * The section-length rules of a sample: every present section is
 * sized to the graph, and pooling covers at most every node. Null
 * when they hold, else the first rule broken. O(1): the endpoint
 * range check is the caller's scan.
 */
const char *
length_error(const GraphSample &sample)
{
    const NodeId n = sample.graph.num_nodes;
    if (sample.node_features.rows() != n)
        return "node feature rows != num_nodes";
    if (sample.edge_features.rows() != 0 &&
        sample.edge_features.rows() != sample.num_edges())
        return "edge feature rows != num_edges";
    if (!sample.dgn_field.empty() && sample.dgn_field.size() != n)
        return "dgn_field size != num_nodes";
    if (!sample.true_in_deg.empty() && sample.true_in_deg.size() != n)
        return "true_in_deg size != num_nodes";
    if (!sample.true_out_deg.empty() && sample.true_out_deg.size() != n)
        return "true_out_deg size != num_nodes";
    if (sample.num_pool_nodes > n)
        return "num_pool_nodes > num_nodes";
    return nullptr;
}

} // namespace

SampleRef::SampleRef(const GraphSample &sample)
    : graph(sample.graph), num_pool_nodes(sample.num_pool_nodes),
      label(sample.label)
{
    if (const char *error = length_error(sample))
        throw std::invalid_argument(std::string("SampleRef: ") + error);
    if (sample.node_features.cols() > 0) {
        node_features = sample.node_features.data();
        node_dim = sample.node_features.cols();
    }
    if (sample.edge_features.cols() > 0 &&
        sample.edge_features.rows() > 0) {
        edge_features = sample.edge_features.data();
        edge_dim = sample.edge_features.cols();
    }
    if (!sample.dgn_field.empty())
        dgn_field = sample.dgn_field.data();
    if (!sample.true_in_deg.empty())
        true_in_deg = sample.true_in_deg.data();
    if (!sample.true_out_deg.empty())
        true_out_deg = sample.true_out_deg.data();
}

bool
SampleRef::consistent(unsigned threads) const
{
    if (!graph.valid(threads))
        return false;
    if (num_pool_nodes > graph.num_nodes())
        return false;
    return true;
}

bool
GraphSample::consistent() const
{
    return length_error(*this) == nullptr && graph.valid();
}

GraphSample
with_virtual_nodes(const GraphSample &sample, std::uint32_t count)
{
    GraphSample out = sample;
    if (out.num_pool_nodes == 0)
        out.num_pool_nodes = sample.pool_nodes();
    for (std::uint32_t i = 0; i < count; ++i) {
        GraphSample next = with_virtual_node(out);
        // Disconnect the new VN from previously added VNs: keep only
        // edges touching original nodes. with_virtual_node connected
        // it to everything, including earlier virtual nodes.
        NodeId vn = next.graph.num_nodes - 1;
        NodeId originals = out.num_pool_nodes;
        CooGraph pruned;
        pruned.num_nodes = next.graph.num_nodes;
        Matrix pruned_ef(0, 0);
        std::vector<std::size_t> kept;
        for (std::size_t e = 0; e < next.graph.num_edges(); ++e) {
            const Edge &edge = next.graph.edges[e];
            bool touches_vn = (edge.src == vn || edge.dst == vn);
            bool other_is_virtual =
                (edge.src >= originals && edge.src != vn) ||
                (edge.dst >= originals && edge.dst != vn);
            if (touches_vn && other_is_virtual)
                continue;
            pruned.edges.push_back(edge);
            kept.push_back(e);
        }
        if (next.edge_features.cols() > 0) {
            pruned_ef = Matrix(pruned.edges.size(),
                               next.edge_features.cols());
            for (std::size_t k = 0; k < kept.size(); ++k)
                for (std::size_t col = 0;
                     col < next.edge_features.cols(); ++col)
                    pruned_ef(k, col) = next.edge_features(kept[k], col);
        }
        next.graph = std::move(pruned);
        next.edge_features = std::move(pruned_ef);
        out = std::move(next);
    }
    return out;
}

GraphSample
with_virtual_node(const GraphSample &sample)
{
    GraphSample out;
    out.graph = add_virtual_node(sample.graph);
    out.num_pool_nodes = sample.pool_nodes();
    out.label = sample.label;

    out.node_features = Matrix(out.graph.num_nodes,
                               sample.node_features.cols());
    for (NodeId n = 0; n < sample.graph.num_nodes; ++n)
        for (std::size_t c = 0; c < sample.node_features.cols(); ++c)
            out.node_features(n, c) = sample.node_features(n, c);

    if (sample.edge_features.cols() > 0 &&
        sample.edge_features.rows() > 0) {
        out.edge_features = Matrix(out.graph.num_edges(),
                                   sample.edge_features.cols());
        for (std::size_t e = 0; e < sample.graph.num_edges(); ++e)
            for (std::size_t c = 0; c < sample.edge_features.cols(); ++c)
                out.edge_features(e, c) = sample.edge_features(e, c);
    }

    if (!sample.dgn_field.empty()) {
        out.dgn_field = sample.dgn_field;
        out.dgn_field.push_back(0.0f);
    }
    return out;
}

} // namespace flowgnn
