#include "core/engine.h"

#include <stdexcept>

#include "core/phase_model.h"

namespace flowgnn {

/**
 * Graph-sized scratch buffers reused across runs. Buffers are resized
 * (never shrunk) per graph, so a steady-state replica serving a stream
 * of similar graphs stops allocating in the run loop.
 */
struct RunWorkspace::Impl {
    PricingScratch pricing;
    FunctionalScratch functional;
};

RunWorkspace::RunWorkspace() : impl_(std::make_unique<Impl>()) {}
RunWorkspace::~RunWorkspace() = default;
RunWorkspace::RunWorkspace(RunWorkspace &&) noexcept = default;
RunWorkspace &RunWorkspace::operator=(RunWorkspace &&) noexcept = default;

Engine::Engine(const Model &model, EngineConfig config)
    : model_(model), config_(config)
{
    config_.validate();
}

RunResult
Engine::run(const GraphSample &sample, const RunOptions &opts) const
{
    RunWorkspace ws;
    return run(sample, opts, ws);
}

RunResult
Engine::run(const GraphSample &sample, const RunOptions &opts,
            RunWorkspace &ws) const
{
    GraphSample prepared = model_.prepare(sample);
    return run_prepared(prepared, opts, ws, 1);
}

RunResult
Engine::run_prepared(const SampleRef &prepared, const RunOptions &opts,
                     RunWorkspace &ws, unsigned threads) const
{
    // Run-to-completion wrapper: a fresh checkpoint and a masked
    // preemption token, so this entry point keeps its historical
    // semantics even when callers set RunOptions::preempt.
    RunOptions whole = opts;
    whole.preempt = nullptr;
    LayerCheckpoint ckpt;
    RunResult result;
    run_resumable(prepared, whole, ws, ckpt, result, std::size_t(-1),
                  threads);
    return result;
}

SegmentOutcome
Engine::run_resumable(const SampleRef &prepared, const RunOptions &opts,
                      RunWorkspace &ws, LayerCheckpoint &ckpt,
                      RunResult &result, std::size_t max_stages,
                      unsigned threads) const
{
    RunWorkspace::Impl &wsi = *ws.impl_;
    const NodeId n_nodes = prepared.num_nodes();
    if (n_nodes == 0)
        throw std::invalid_argument("Engine: sample has no nodes");

    // ---- Values: the functional kernel runs this segment's stages
    // and decides where it ends (it polls the preemption token) ----
    const SegmentOutcome outcome =
        functional_forward(model_, prepared, opts, threads, ckpt,
                           max_stages, result.embeddings, &wsi.functional);
    if (outcome == SegmentOutcome::kPreempted)
        return outcome;

    // ---- Timing: structure alone, so the whole run is priced once,
    // by the segment that completes it (as each ghost die is) ----
    result.prediction =
        model_.readout(result.embeddings, prepared.pool_nodes());
    result.stats = price_run(
        model_, config_, opts,
        {prepared.graph, n_nodes, nullptr, prepared.node_dim,
         prepared.edge_dim},
        threads, wsi.pricing);
    return outcome;
}

} // namespace flowgnn
