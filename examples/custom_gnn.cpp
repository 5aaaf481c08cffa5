/**
 * @file
 * The FlowGNN programming model (paper Sec. V / Listing 1): building
 * an accelerator for a brand-new GNN by writing only the layer kernel.
 *
 * "Alice" reads a paper proposing NewGNN — max-aggregation over
 * edge-conditioned messages with a gated update — which no accelerator
 * supports. She subclasses Layer (examples/new_gnn_layer.h), filling in
 * exactly the pieces that Listing 1 highlights (the message function
 * phi, the aggregator choice, and the node transformation gamma); the
 * message-passing skeleton, multi-queue dataflow, multicast adapter,
 * and parallelism machinery all come from the framework unchanged.
 */
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/engine.h"
#include "datasets/dataset.h"
#include "new_gnn_layer.h"
#include "nn/encoder_layer.h"

using namespace flowgnn;
using flowgnn::examples::NewGnnLayer;

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
