#include "ghost/ghost_engine.h"

#include <cstdio>
#include <thread>
#include <utility>

#include "core/functional.h"
#include "core/phase_model.h"
#include "obs/trace_session.h"

namespace flowgnn {

namespace {

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

RunResult
run_ghost_plan(const Model &model, const EngineConfig &config,
               const SampleRef &prepared, const GhostPlan &plan,
               const RunOptions &opts, const LinkConfig &link,
               unsigned host_cores)
{
    // Run-to-completion wrapper: a fresh checkpoint and a masked
    // preemption token.
    RunOptions whole = opts;
    whole.preempt = nullptr;
    LayerCheckpoint ckpt;
    RunResult out;
    run_ghost_plan(model, config, prepared, plan, whole, link, ckpt, out,
                   std::size_t(-1), host_cores);
    return out;
}

SegmentOutcome
run_ghost_plan(const Model &model, const EngineConfig &config,
               const SampleRef &prepared, const GhostPlan &plan,
               const RunOptions &opts, const LinkConfig &link,
               LayerCheckpoint &ckpt, RunResult &out,
               std::size_t max_stages, unsigned host_cores)
{
    if (!plan.sharded) {
        // Fallback: one die over the whole sample is an Engine run.
        RunWorkspace ws;
        const SegmentOutcome outcome = Engine(model, config).run_resumable(
            prepared, opts, ws, ckpt, out, max_stages, host_cores);
        if (outcome == SegmentOutcome::kComplete) {
            out.shards.assign(1, plan.shards.front().info);
            out.shards.back().stats = out.stats;
            out.cut_edges = plan.cut_edges;
            out.replication_factor = plan.replication_factor;
        }
        return outcome;
    }

    config.validate();
    obs::TraceSession *session = obs::TraceSession::current();
    const std::uint64_t run_start_ns =
        session ? session->now_ns() : 0;

    // ---- Global functional pass ----
    // Timing is structural, so the functional kernel computes the
    // values once over the whole graph. Its gathers fold every
    // destination's messages in src-major order, as the unsharded
    // engine does, so ghost runs are bit-identical to unsharded runs
    // in every pipeline mode and invariant in the shard count.
    // Quantization points are the engine's own, and since its
    // quantizer is idempotent, the re-quantization at every boundary
    // crossing is value-preserving. Only this pass checkpoints: it is
    // the sole carrier of values. The structural pricing below runs
    // exactly once, on the segment that completes.
    Matrix embeddings;
    {
        obs::Span span(obs::Track::kGhost, "functional pass");
        if (functional_forward(model, prepared, opts, host_cores, ckpt,
                               max_stages, embeddings) ==
            SegmentOutcome::kPreempted)
            return SegmentOutcome::kPreempted;
    }
    out = RunResult{};
    out.embeddings = std::move(embeddings);
    out.prediction = model.readout(out.embeddings, prepared.pool_nodes());

    // ---- Per-die timing, one thread per die ----
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
                const GhostShard &shard = plan.shards[t];
                PricingScratch scratch;
                per_die[t] = price_run(
                    model, config, opts,
                    {plan.local_graph(t),
                     static_cast<NodeId>(shard.info.owned_nodes),
                     shard.is_owned.data(), prepared.node_dim,
                     prepared.edge_dim},
                    1, scratch);
            });
        }
        for (std::thread &th : threads)
            th.join();
    }

    // ---- Compose: per-layer exchanges against per-phase windows ----
    std::vector<std::vector<std::uint64_t>> per_layer_comm;
    per_layer_comm.reserve(plan.shards.size());
    for (std::size_t t = 0; t < plan.shards.size(); ++t) {
        out.shards.push_back(plan.shards[t].info);
        out.shards.back().stats = per_die[t];
        per_layer_comm.push_back(plan.shards[t].layer_comm_cycles);
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
    return SegmentOutcome::kComplete;
}

ShardedEngine::ShardedEngine(const Model &model, EngineConfig engine_config,
                             ShardConfig shard_config)
    : model_(model), config_(engine_config), shard_config_(shard_config)
{
    config_.validate();
    shard_config_.validate();
}

RunResult
ShardedEngine::run(const GraphSample &sample, const RunOptions &opts) const
{
    opts.validate();
    const GraphSample prepared = model_.prepare(sample);
    GhostPlan plan;
    {
        obs::Span span(obs::Track::kShard, "ghost plan");
        plan = make_ghost_plan(model_, prepared, shard_config_, 1);
    }
    return run_ghost_plan(model_, config_, prepared, plan, opts,
                          shard_config_.link, 1);
}

} // namespace flowgnn
