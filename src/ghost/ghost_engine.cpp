#include "ghost/ghost_engine.h"

#include <cstdio>
#include <thread>
#include <utility>

#include "core/functional.h"
#include "core/phase_model.h"
#include "graph/partition.h"
#include "obs/trace_session.h"

namespace flowgnn {

namespace {

/**
 * Prices one die's run: the shared per-stage pricing loop over the
 * die's local subgraph, with accumulate costs split between owned
 * vertices (full NT work from the shared schedule) and ghosts (zero —
 * their embedding arrived over the link and is only re-streamed into
 * the scatter; GAT ghosts pay the local projection). Timing is
 * structural: the functional answer is computed once globally by the
 * caller.
 */
RunStats
price_ghost_die(const GhostShard &shard,
                const std::vector<StageSchedule> &schedule,
                const Model &model, const EngineConfig &cfg,
                const RunOptions &opts, std::size_t node_dim,
                std::size_t edge_dim)
{
    const NodeId n_locals = shard.local_graph.num_nodes;
    const NodeId n_owned =
        static_cast<NodeId>(shard.info.owned_nodes);
    const std::uint64_t n_ghosts = shard.info.halo_nodes;

    RunStats stats;
    stats.clock_mhz = cfg.clock_mhz;
    stats.nt_units.assign(cfg.p_node, {});
    stats.mp_units.assign(cfg.p_edge, {});
    stats.mp_edge_work.assign(cfg.p_edge, 0);

    // Input DMA: the die loads only its owned vertices' records and
    // its local edges; ghost slots cost one id word each (their
    // payload arrives over the link, priced separately).
    stats.load_cycles = ceil_div_u64(
        std::uint64_t(n_owned) * (node_dim + 1) +
            std::uint64_t(shard.local_graph.edges.size()) *
                (edge_dim + 2) +
            n_ghosts,
        64);

    // Destination-bank split over the local subgraph, mirroring the
    // engine's policy choice on local ids.
    std::vector<std::uint32_t> bank_of;
    if (cfg.bank_policy == BankPolicy::kGreedyBalanced) {
        bank_of = balanced_bank_assignment(shard.local_graph,
                                           cfg.p_edge);
    } else {
        bank_of.resize(n_locals);
        for (NodeId v = 0; v < n_locals; ++v)
            bank_of[v] = v % cfg.p_edge;
    }
    std::vector<std::vector<BankWork>> banks;
    split_banks(shard.local_graph, bank_of, cfg.p_edge, banks);

    std::uint64_t phase_base = 0;
    const PricedGraph graph{n_locals, n_owned, shard.is_owned.data(),
                            &banks};
    price_stages(schedule, graph, cfg, opts, 0, schedule.size(), stats,
                 phase_base);
    price_run_tail(model, schedule, n_owned, cfg, stats);
    return stats;
}

/**
 * Emits the modeled per-die execution — load, per-layer boundary
 * exchange, per-stage compute, head — as cycle-domain spans on
 * Track::kGhost, one explicitly-addressed row per die, serialized in
 * model order. comm[p] is the exchange feeding phase p's scatter
 * (RunStats::layer_comm_cycles convention), so it precedes stage p.
 */
void
emit_modeled_timeline(obs::TraceSession &session,
                      const std::vector<RunStats> &per_die,
                      const std::vector<std::vector<std::uint64_t>>
                          &per_layer_comm,
                      const obs::CycleClockMap &map)
{
    char nm[48];
    for (std::size_t t = 0; t < per_die.size(); ++t) {
        const RunStats &s = per_die[t];
        const std::uint32_t tid =
            obs::TraceSession::kExplicitTidBase +
            static_cast<std::uint32_t>(t);
        std::snprintf(nm, sizeof nm, "die %zu (modeled)", t);
        session.name_row(obs::Track::kGhost, tid, nm);

        std::uint64_t cursor = 0;
        auto emit = [&](const char *label, std::uint64_t cycles) {
            if (cycles == 0)
                return;
            session.span_on(obs::Track::kGhost, tid, label,
                            map.to_ns(cursor),
                            map.to_ns(cursor + cycles));
            cursor += cycles;
        };

        emit("load", s.load_cycles);
        const std::vector<std::uint64_t> &comm = per_layer_comm[t];
        for (std::size_t p = 0; p < s.phase_cycles.size(); ++p) {
            if (p < comm.size() && comm[p] != 0) {
                std::snprintf(nm, sizeof nm, "exchange %zu", p);
                emit(nm, comm[p]);
            }
            std::snprintf(nm, sizeof nm, "stage %zu", p);
            emit(nm, s.phase_cycles[p]);
        }
        emit("head", s.head_cycles);
    }
}

} // namespace

ShardedRunResult
run_ghost_plan(const Model &model, const EngineConfig &config,
               const GraphSample &prepared, GhostPlan &&plan,
               const RunOptions &opts, const LinkConfig &link)
{
    return run_ghost_plan(model, config, SampleRef(prepared),
                          std::move(plan), opts, link, 1);
}

ShardedRunResult
run_ghost_plan(const Model &model, const EngineConfig &config,
               const SampleRef &prepared, GhostPlan &&plan,
               const RunOptions &opts, const LinkConfig &link,
               unsigned host_cores)
{
    return run_ghost_plan(model, config, prepared, std::move(plan),
                          opts, link, nullptr, host_cores);
}

ShardedRunResult
run_ghost_plan(const Model &model, const EngineConfig &config,
               const SampleRef &prepared, GhostPlan &&plan,
               const RunOptions &opts, const LinkConfig &link,
               GhostResumeState *resume, unsigned host_cores)
{
    ShardedRunResult out;
    obs::TraceSession *session = obs::TraceSession::current();
    const std::uint64_t run_start_ns =
        session ? session->now_ns() : 0;

    if (!plan.sharded) {
        Engine engine(model, config);
        RunWorkspace ws;
        RunResult r;
        if (resume != nullptr) {
            if (engine.run_resumable(prepared, opts, ws,
                                     resume->checkpoint, r,
                                     resume->max_stages, host_cores) ==
                SegmentOutcome::kPreempted) {
                resume->preempted = true;
                resume->plan = std::move(plan);
                return out;
            }
            resume->preempted = false;
        } else {
            r = engine.run_prepared(prepared, opts, ws, host_cores);
        }
        out.embeddings = std::move(r.embeddings);
        out.prediction = r.prediction;
        GhostShard &shard = plan.shards.front();
        shard.info.stats = r.stats;
        out.shards.push_back(std::move(shard.info));
        out.stats = std::move(r.stats);
        return out;
    }

    // ---- Global functional pass ----
    // Timing is structural, so the functional kernel computes the
    // values once over the whole graph. Its gathers fold every
    // destination's messages in src-major order, as the unsharded
    // engine does, so ghost runs are bit-identical to unsharded runs
    // in every pipeline mode and invariant in the shard count.
    // Quantization points are the engine's own, and since its
    // quantizer is idempotent, the re-quantization at every boundary
    // crossing is value-preserving.
    {
        obs::Span span(obs::Track::kGhost, "functional pass");
        // Only the functional pass checkpoints: it is the sole carrier
        // of values. The structural per-die pricing below runs exactly
        // once, on the segment that completes. Without resume state
        // the pass runs to completion (the token is masked).
        LayerCheckpoint whole;
        RunOptions func_opts = opts;
        if (resume == nullptr)
            func_opts.preempt = nullptr;
        const SegmentOutcome seg = functional_forward(
            model, prepared, func_opts, host_cores,
            resume != nullptr ? resume->checkpoint : whole,
            resume != nullptr ? resume->max_stages : std::size_t(-1),
            out.embeddings);
        if (resume != nullptr) {
            resume->preempted = seg == SegmentOutcome::kPreempted;
            if (resume->preempted) {
                resume->plan = std::move(plan);
                return out;
            }
        }
    }
    out.prediction = model.readout(out.embeddings, prepared.pool_nodes());

    // ---- Per-die timing, one thread per die ----
    const std::vector<StageSchedule> schedule =
        build_stage_schedule(model, config);
    const std::size_t node_dim = prepared.node_dim;
    const std::size_t edge_dim = prepared.edge_dim;
    std::vector<RunStats> per_die(plan.shards.size());
    {
        std::vector<std::thread> threads;
        threads.reserve(plan.shards.size());
        for (std::size_t t = 0; t < plan.shards.size(); ++t) {
            threads.emplace_back([&, t] {
                char nm[32];
                std::snprintf(nm, sizeof nm, "price die %zu", t);
                if (obs::TraceSession *s = obs::TraceSession::current())
                    s->name_thread(obs::Track::kGhost, nm);
                obs::Span span(obs::Track::kGhost, nm);
                per_die[t] =
                    price_ghost_die(plan.shards[t], schedule, model,
                                    config, opts, node_dim, edge_dim);
            });
        }
        for (std::thread &th : threads)
            th.join();
    }

    // ---- Compose: per-layer exchanges against per-phase windows ----
    std::vector<std::vector<std::uint64_t>> per_layer_comm;
    per_layer_comm.reserve(plan.shards.size());
    for (std::size_t t = 0; t < plan.shards.size(); ++t) {
        GhostShard &shard = plan.shards[t];
        shard.info.stats = per_die[t];
        per_layer_comm.push_back(std::move(shard.layer_comm_cycles));
        out.shards.push_back(std::move(shard.info));
    }
    out.stats =
        compose_shard_stats(per_die, per_layer_comm, link.overlap);
    out.cut_edges = plan.cut_edges;
    out.replication_factor = plan.replication_factor;

    // The modeled multi-die execution — per-layer exchanges between
    // per-stage compute windows — onto the wall timeline, anchored at
    // the instant this run started.
    if (session)
        emit_modeled_timeline(
            *session, per_die, per_layer_comm,
            obs::CycleClockMap{run_start_ns, config.clock_mhz});
    return out;
}

GhostExchangeEngine::GhostExchangeEngine(const Model &model,
                                         EngineConfig config,
                                         ShardConfig shard_config)
    : model_(model), config_(config), shard_config_(shard_config)
{
    config_.validate();
    shard_config_.validate();
}

ShardedRunResult
GhostExchangeEngine::run(const GraphSample &sample) const
{
    return run(sample, RunOptions{});
}

ShardedRunResult
GhostExchangeEngine::run(const GraphSample &sample,
                         const RunOptions &opts) const
{
    GraphSample prepared = model_.prepare(sample);
    GhostPlan plan = make_ghost_plan(model_, prepared, shard_config_);
    return run_ghost_plan(model_, config_, prepared, std::move(plan),
                          opts, shard_config_.link);
}

} // namespace flowgnn
