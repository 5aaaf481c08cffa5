#include "nn/layer.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace flowgnn {

LayerContext
make_layer_context(const SampleRef &sample, const PnaParams &pna,
                   unsigned threads, NodeDegrees *counted)
{
    LayerContext ctx;
    ctx.dgn_field = sample.dgn_field;
    const NodeId n = sample.num_nodes();
    // Subgraph execution (multi-die sharding) supplies the full
    // graph's degrees alongside the features; otherwise take the
    // caller's counts or count edges.
    if (sample.true_in_deg != nullptr)
        ctx.in_deg.assign(sample.true_in_deg, sample.true_in_deg + n);
    else if (counted != nullptr)
        ctx.in_deg = std::move(counted->in);
    else
        ctx.in_deg = sample.graph.in_degrees(threads);
    if (sample.true_out_deg != nullptr)
        ctx.out_deg.assign(sample.true_out_deg,
                           sample.true_out_deg + n);
    else if (counted != nullptr)
        ctx.out_deg = std::move(counted->out);
    else
        ctx.out_deg = sample.graph.out_degrees(threads);
    ctx.pna = pna;

    if (sample.dgn_field != nullptr) {
        const float *u = sample.dgn_field;
        ctx.dgn_norm.assign(n, 1e-6f);
        const std::size_t e = sample.num_edges();
        for (std::size_t i = 0; i < e; ++i) {
            float du = u[sample.graph.src(i)] - u[sample.graph.dst(i)];
            ctx.dgn_norm[sample.graph.dst(i)] += std::abs(du);
        }
    }
    return ctx;
}

void
Layer::gather(const InEdges &, const MessageInputs &, const LayerContext &,
              float *) const
{
    throw std::logic_error(std::string(name()) +
                           ": layer has no message function");
}

} // namespace flowgnn
