/**
 * @file
 * Shared helpers for the fuzz/differential suites: deterministic
 * random GraphSamples over the library's synthetic graph generators,
 * and the independent per-edge functional oracle.
 */
#ifndef FLOWGNN_TESTS_TESTING_UTIL_H
#define FLOWGNN_TESTS_TESTING_UTIL_H

#include <stdexcept>

#include "core/config.h"
#include "graph/generators.h"
#include "graph/sample.h"
#include "nn/gat_layer.h"
#include "nn/model.h"
#include "tensor/fixed_point.h"
#include "tensor/rng.h"

namespace flowgnn::testing {

/** Layer::message into a fresh msg_dim() vector. */
inline Vec
message_of(const Layer &layer, const Vec &x_src, const float *edge_feat,
           std::size_t edge_dim, NodeId src, NodeId dst,
           const LayerContext &ctx)
{
    Vec out(layer.msg_dim());
    layer.message(x_src.data(), edge_feat, edge_dim, src, dst, ctx,
                  out.data());
    return out;
}

/**
 * The independent functional oracle: the original per-edge executor.
 * Convs scatter src-major over a CSR, one message vector per edge;
 * attention gathers over the stream-order CSC. With
 * `opts.emulate_fixed_point` it quantizes at the engine's points
 * (inputs, messages, aggregator state after every accumulate,
 * finalized aggregates, stage outputs). It shares only the layer math
 * with the functional kernel — never its adjacency, threading or
 * buffers — so differential tests never compare the kernel with
 * itself.
 */
inline Matrix
naive_reference_embeddings(const Model &model, const GraphSample &prepared,
                           const RunOptions &opts = {})
{
    const bool quant = opts.emulate_fixed_point;
    auto q = [&](Vec &v) {
        if (quant)
            quantize_inplace(v, opts.fixed_point);
    };
    const NodeId n = prepared.num_nodes();
    const LayerContext ctx = make_layer_context(prepared, model.pna_params());
    const CsrGraph csr(prepared.graph);
    const CscGraph csc(prepared.graph);
    const float *efeat_base = prepared.edge_features.data();
    const std::size_t edge_dim = prepared.edge_dim();

    std::vector<Vec> x(n);
    for (NodeId i = 0; i < n; ++i) {
        x[i] = prepared.node_features.row_vec(i);
        q(x[i]);
    }
    for (std::size_t si = 0; si < model.num_stages(); ++si) {
        const Layer &stage = model.stage(si);
        std::vector<Vec> next(n);
        if (stage.msg_dim() == 0) {
            const Vec empty;
            for (NodeId i = 0; i < n; ++i)
                next[i] = stage.transform(x[i], empty, i, ctx);
        } else if (stage.dataflow() == DataflowKind::kNtToMp) {
            const Aggregator agg = stage.aggregator();
            const std::size_t sd = agg.state_dim();
            std::vector<float> states(std::size_t(n) * sd);
            for (NodeId i = 0; i < n; ++i)
                agg.init(states.data() + i * sd);
            for (NodeId src = 0; src < n; ++src) {
                for (std::size_t s = csr.row_begin(src);
                     s < csr.row_end(src); ++s) {
                    const NodeId dst = csr.dst(s);
                    const float *ef =
                        edge_dim ? efeat_base +
                                       std::size_t(csr.edge_id(s)) * edge_dim
                                 : nullptr;
                    Vec msg =
                        message_of(stage, x[src], ef, edge_dim, src, dst, ctx);
                    q(msg);
                    float *st = states.data() + std::size_t(dst) * sd;
                    agg.accumulate(st, msg.data());
                    if (quant)
                        quantize_inplace(st, sd, opts.fixed_point);
                }
            }
            for (NodeId i = 0; i < n; ++i) {
                Vec fin = agg.finalize(states.data() + i * sd,
                                       ctx.in_deg[i], ctx.pna);
                q(fin);
                next[i] = stage.transform(x[i], fin, i, ctx);
            }
        } else {
            const auto *gat = dynamic_cast<const GatLayer *>(&stage);
            if (gat == nullptr)
                throw std::logic_error("oracle: MP-to-NT stage is not GAT");
            std::vector<Vec> h(n);
            for (NodeId i = 0; i < n; ++i) {
                h[i] = gat->project(x[i]);
                q(h[i]);
            }
            for (NodeId i = 0; i < n; ++i) {
                std::vector<const float *> nbrs;
                for (std::size_t s = csc.col_begin(i); s < csc.col_end(i);
                     ++s)
                    nbrs.push_back(h[csc.src(s)].data());
                next[i] = gat_combine(*gat, h[i].data(), nbrs);
            }
        }
        for (Vec &row : next)
            q(row);
        x = std::move(next);
    }

    Matrix out(n, model.embedding_dim());
    for (NodeId i = 0; i < n; ++i)
        out.set_row(i, x[i]);
    return out;
}

/** Wraps a graph with deterministic random node/edge features. */
inline GraphSample
make_random_sample(CooGraph graph, std::size_t node_dim,
                   std::size_t edge_dim, std::uint64_t seed)
{
    GraphSample s;
    s.graph = std::move(graph);
    Rng rng(seed);
    s.node_features = Matrix(s.graph.num_nodes, node_dim);
    for (std::size_t r = 0; r < s.node_features.rows(); ++r)
        for (std::size_t c = 0; c < node_dim; ++c)
            s.node_features(r, c) =
                static_cast<float>(rng.normal(0.0, 0.5));
    if (edge_dim > 0) {
        s.edge_features = Matrix(s.graph.num_edges(), edge_dim);
        for (std::size_t r = 0; r < s.edge_features.rows(); ++r)
            for (std::size_t c = 0; c < edge_dim; ++c)
                s.edge_features(r, c) =
                    static_cast<float>(rng.normal(0.0, 0.5));
    }
    return s;
}

/** Deterministic random graph; `flavor` rotates the generator family
 * so a fuzz loop covers chemistry-, random-, and power-law-shaped
 * structure. */
inline CooGraph
make_random_graph(std::uint32_t flavor, NodeId num_nodes,
                  std::uint64_t seed)
{
    Rng rng(seed);
    switch (flavor % 3) {
      case 0:
        return make_molecule(num_nodes, rng);
      case 1:
        return make_erdos_renyi(num_nodes, 2 * std::size_t(num_nodes),
                                rng);
      default:
        return make_barabasi_albert(num_nodes, 2, rng);
    }
}

} // namespace flowgnn::testing

#endif // FLOWGNN_TESTS_TESTING_UTIL_H
