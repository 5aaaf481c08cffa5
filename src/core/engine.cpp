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
    std::vector<std::uint64_t> acc_cycles;
    std::vector<std::uint64_t> acc_zero;
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
    // same numbers the ghost-exchange executor prices with.
    const std::vector<StageSchedule> schedule =
        build_stage_schedule(model_, cfg);
    for (std::size_t si = first; si < last; ++si) {
        const StageSchedule &sched = schedule[si];
        wsi.acc_cycles.assign(n_nodes, sched.acc_cycles);
        PhaseWork w;
        w.n_nodes = n_nodes;
        w.acc_cycles = &wsi.acc_cycles;
        w.stream_elems = sched.stream_elems;
        w.has_scatter = sched.has_scatter;
        w.expansion = sched.expansion;
        w.banks = &wsi.banks;
        std::uint64_t cycles = run_phase({w, cfg, opts, stats, phase_base});
        if (sched.is_gat) {
            // GAT gathers need a second round: re-stream the
            // projections from the node buffer (no recomputation) for
            // the weighted sum.
            PhaseWork w2 = w;
            wsi.acc_zero.assign(n_nodes, 0);
            w2.acc_cycles = &wsi.acc_zero;
            cycles +=
                run_phase({w2, cfg, opts, stats, phase_base + cycles});
        }
        phase_base += cycles;
        stats.phase_cycles.push_back(cycles);
        stats.total_cycles += cycles;
    }

    if (outcome == SegmentOutcome::kPreempted) {
        ckpt.stats = std::move(stats);
        ckpt.phase_base = phase_base;
        return outcome;
    }

    // Epilogue: final GAT combine if the last stage was attention.
    if (schedule.back().is_gat) {
        std::uint64_t per_node = ceil_div_u64(
            model_.stage(n_stages - 1).out_dim(), cfg.p_apply);
        std::uint64_t epi =
            ceil_div_u64(std::uint64_t(n_nodes), cfg.p_node) * per_node;
        stats.phase_cycles.push_back(epi);
        stats.total_cycles += epi;
    }

    // Global pooling (accumulated while the final embeddings stream
    // out — free) + the MLP head.
    result.prediction =
        model_.readout(result.embeddings, prepared.pool_nodes());
    std::uint64_t head_cycles = 0;
    for (std::size_t l = 0; l < model_.head().num_layers(); ++l)
        head_cycles +=
            ceil_div_u64(model_.head().layer(l).in_dim(), cfg.p_apply);
    stats.head_cycles = head_cycles;
    stats.total_cycles += head_cycles + stats.load_cycles;
    return outcome;
}

} // namespace flowgnn
