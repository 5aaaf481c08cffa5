#include "core/engine.h"

#include <stdexcept>

#include "core/phase_model.h"
#include "graph/partition.h"

namespace flowgnn {

/**
 * Graph-sized scratch buffers reused across runs. Buffers are resized
 * (never shrunk) per graph, so a steady-state replica serving a stream
 * of similar graphs stops allocating in the run loop.
 */
struct RunWorkspace::Impl {
    std::vector<std::uint32_t> bank_of;
    std::vector<std::vector<BankWork>> banks;
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
Engine::run(const GraphSample &sample) const
{
    RunWorkspace ws;
    return run(sample, RunOptions{}, ws);
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
    return run_prepared(prepared, opts, ws);
}

RunResult
Engine::run_prepared(const GraphSample &prepared, const RunOptions &opts,
                     RunWorkspace &ws) const
{
    // The GraphSample front door keeps the stronger structural check
    // (feature-row counts vs graph sizes) that SampleRef cannot see.
    if (!prepared.consistent())
        throw std::invalid_argument("Engine: inconsistent sample");
    return run_prepared(SampleRef(prepared), opts, ws, 1);
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
    const EngineConfig &cfg = config_;
    RunWorkspace::Impl &wsi = *ws.impl_;
    const NodeId n_nodes = prepared.num_nodes();
    if (n_nodes == 0)
        throw std::invalid_argument("Engine: sample has no nodes");

    // Timing accumulated over the completed stages carries over;
    // everything derived (banks, adjacency, schedule) is rebuilt below
    // from (sample, config), so it cannot drift from the original run.
    const std::size_t first = ckpt.next_stage;
    RunStats &stats = result.stats;
    std::uint64_t phase_base = 0;
    if (first > 0) {
        stats = std::move(ckpt.stats);
        phase_base = ckpt.phase_base;
    } else {
        stats = RunStats{};
        stats.clock_mhz = cfg.clock_mhz;
        stats.nt_units.assign(cfg.p_node, {});
        stats.mp_units.assign(cfg.p_edge, {});
        stats.mp_edge_work.assign(cfg.p_edge, 0);

        // Input DMA: nodes, features, and the raw COO edge list stream
        // in at 64 words/cycle (a conservative fraction of the U50's
        // 460 GB/s HBM2 bandwidth, ~380 words/cycle at 300 MHz); not
        // overlapped with compute, as documented in docs/DESIGN.md.
        stats.load_cycles = ceil_div_u64(
            std::uint64_t(n_nodes) * (prepared.node_dim + 1) +
                std::uint64_t(prepared.num_edges()) *
                    (prepared.edge_dim + 2),
            64);
    }

    // ---- Values: the functional kernel runs this segment's stages
    // and decides where it ends (it polls the preemption token) ----
    const SegmentOutcome outcome =
        functional_forward(model_, prepared, opts, threads, ckpt,
                           max_stages, result.embeddings, &wsi.functional);
    const std::size_t n_stages = model_.num_stages();
    const std::size_t last = outcome == SegmentOutcome::kComplete
                                 ? n_stages
                                 : ckpt.next_stage;

    // ---- Timing: the same stages, priced from structure alone ----
    // Destination-node -> MP-bank map. Modulo is the on-the-fly
    // default; greedy balancing is the pre-processing ablation.
    std::vector<std::uint32_t> &bank_of = wsi.bank_of;
    if (cfg.bank_policy == BankPolicy::kGreedyBalanced) {
        bank_of =
            balanced_bank_assignment(prepared.graph, cfg.p_edge, threads);
    } else {
        bank_of.resize(n_nodes);
        for (NodeId n = 0; n < n_nodes; ++n)
            bank_of[n] = n % cfg.p_edge;
    }
    split_banks(prepared.graph, bank_of, cfg.p_edge, wsi.banks);

    // Timing constants come from the shared per-stage schedule — the
    // same numbers and the same loop the ghost-exchange executor prices
    // each die with.
    const std::vector<StageSchedule> schedule =
        build_stage_schedule(model_, cfg);
    const PricedGraph graph{n_nodes, n_nodes, nullptr, &wsi.banks};
    price_stages(schedule, graph, cfg, opts, first, last, stats,
                 phase_base);

    if (outcome == SegmentOutcome::kPreempted) {
        ckpt.stats = std::move(stats);
        ckpt.phase_base = phase_base;
        return outcome;
    }

    result.prediction =
        model_.readout(result.embeddings, prepared.pool_nodes());
    price_run_tail(model_, schedule, n_nodes, cfg, stats);
    return outcome;
}

} // namespace flowgnn
