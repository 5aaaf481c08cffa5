/**
 * @file
 * Shared helpers for the fuzz/differential suites: deterministic
 * random GraphSamples over the library's synthetic graph generators,
 * the independent per-edge functional oracle, and the independent
 * per-cycle timing oracle.
 */
#ifndef FLOWGNN_TESTS_TESTING_UTIL_H
#define FLOWGNN_TESTS_TESTING_UTIL_H

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/config.h"
#include "core/parallel.h"
#include "core/phase_model.h"
#include "core/stats.h"
#include "ghost/ghost_plan.h"
#include "graph/partition.h"
#include "graph/generators.h"
#include "graph/sample.h"
#include "graph/streaming_partition.h"
#include "nn/gat_layer.h"
#include "nn/model.h"
#include "tensor/fixed_point.h"
#include "tensor/rng.h"

#include "fifo.h"

namespace flowgnn::testing {

/**
 * One edge's message: a one-edge Layer::gather into a fresh aggregator
 * state, read back from the payload (every aggregator's first fold
 * stores the message exactly). The edge feature row, if any, is edge
 * id 0.
 */
inline Vec
message_of(const Layer &layer, const Vec &x_src, const float *edge_feat,
           std::size_t edge_dim, NodeId src, NodeId dst,
           const LayerContext &ctx)
{
    std::vector<float> x((std::size_t(src) + 1) * layer.in_dim());
    std::copy(x_src.begin(), x_src.end(),
              x.begin() + std::size_t(src) * layer.in_dim());
    const EdgeId id = 0;
    const InEdges col{dst, 1, &src, edge_feat != nullptr ? &id : nullptr};
    MessageInputs in;
    in.x = x.data();
    in.edge_features = edge_feat;
    in.edge_dim = edge_dim;
    const Aggregator agg = layer.aggregator();
    std::vector<float> state(agg.state_dim());
    agg.init(state.data());
    layer.gather(col, in, ctx, state.data());
    const std::size_t payload = agg.kind() == AggregatorKind::kSum ? 0 : 1;
    return Vec(state.begin() + payload,
               state.begin() + payload + layer.msg_dim());
}

/** One node's Layer::transform_rows (a one-row block) into a fresh
 * out_dim() vector; an empty `agg` passes null. */
inline Vec
transform_of(const Layer &layer, const Vec &x_self, const Vec &agg,
             NodeId node, const LayerContext &ctx)
{
    Vec out(layer.out_dim());
    layer.transform_rows(x_self.data(), agg.empty() ? nullptr : agg.data(),
                         node, 1, ctx, out.data());
    return out;
}

/**
 * The independent functional oracle: the original per-edge executor.
 * Convs scatter src-major over a CSR, one Layer::gather call per edge;
 * attention gathers over the stream-order CSC; every transform is a
 * one-row Layer::transform_rows call (the per-row path, never the row
 * tiles the kernel runs). With
 * `opts.emulate_fixed_point` it quantizes at the engine's points
 * (inputs, messages, aggregator state after every accumulate,
 * finalized aggregates, stage outputs). It shares only the layer math
 * with the functional kernel — never its adjacency, threading, column
 * batching or buffers — so differential tests never compare the
 * kernel with itself.
 */
inline Matrix
naive_reference_embeddings(const Model &model, const GraphSample &prepared,
                           const RunOptions &opts = {})
{
    const bool quant = opts.emulate_fixed_point;
    auto q = [&](float *values, std::size_t count) {
        if (quant)
            quantize_inplace(values, count, opts.fixed_point);
    };
    const NodeId n = prepared.num_nodes();
    const LayerContext ctx = make_layer_context(prepared, model.pna_params());
    const CsrGraph csr(prepared.graph);
    const CscGraph csc(prepared.graph);
    const std::size_t edge_dim = prepared.edge_dim();

    std::size_t dim = prepared.node_dim();
    std::vector<float> x(prepared.node_features.data(),
                         prepared.node_features.data() +
                             std::size_t(n) * dim);
    q(x.data(), x.size());
    for (std::size_t si = 0; si < model.num_stages(); ++si) {
        const Layer &stage = model.stage(si);
        const std::size_t out_dim = stage.out_dim();
        std::vector<float> next(std::size_t(n) * out_dim);
        if (stage.msg_dim() == 0) {
            for (NodeId i = 0; i < n; ++i)
                stage.transform_rows(x.data() + i * dim, nullptr, i, 1, ctx,
                                     next.data() + i * out_dim);
        } else if (stage.dataflow() == DataflowKind::kNtToMp) {
            const Aggregator agg = stage.aggregator();
            const std::size_t sd = agg.state_dim();
            std::vector<float> states(std::size_t(n) * sd);
            for (NodeId i = 0; i < n; ++i)
                agg.init(states.data() + i * sd);
            MessageInputs in;
            in.x = x.data();
            if (edge_dim > 0) {
                in.edge_features = prepared.edge_features.data();
                in.edge_dim = edge_dim;
            }
            if (quant)
                in.fixed = &opts.fixed_point;
            for (NodeId src = 0; src < n; ++src) {
                for (std::size_t s = csr.row_begin(src);
                     s < csr.row_end(src); ++s) {
                    const EdgeId id = csr.edge_id(s);
                    const InEdges col{csr.dst(s), 1, &src, &id};
                    stage.gather(col, in, ctx,
                                 states.data() +
                                     std::size_t(col.dst) * sd);
                }
            }
            Vec fin(agg.out_dim());
            for (NodeId i = 0; i < n; ++i) {
                agg.finalize(states.data() + i * sd, ctx.in_deg[i],
                             ctx.pna, fin.data());
                q(fin.data(), fin.size());
                stage.transform_rows(x.data() + i * dim, fin.data(), i, 1,
                                     ctx, next.data() + i * out_dim);
            }
        } else {
            const auto *gat = dynamic_cast<const GatLayer *>(&stage);
            if (gat == nullptr)
                throw std::logic_error("oracle: MP-to-NT stage is not GAT");
            std::vector<float> h(std::size_t(n) * out_dim);
            const std::size_t stride = 2 * gat->num_heads();
            std::vector<float> scores(std::size_t(n) * stride);
            for (NodeId i = 0; i < n; ++i) {
                gat->transform_rows(x.data() + i * dim, nullptr, i, 1, ctx,
                                    h.data() + i * out_dim);
                q(h.data() + i * out_dim, out_dim);
                gat->scores(h.data() + i * out_dim,
                            scores.data() + i * stride);
            }
            for (NodeId i = 0; i < n; ++i) {
                std::vector<NodeId> nbrs;
                for (std::size_t s = csc.col_begin(i); s < csc.col_end(i);
                     ++s)
                    nbrs.push_back(csc.src(s));
                gat_combine(*gat, h.data(), scores.data(), i, nbrs.data(),
                            nbrs.size(), next.data() + i * out_dim);
            }
        }
        q(next.data(), next.size());
        x = std::move(next);
        dim = out_dim;
    }

    Matrix out(n, model.embedding_dim());
    std::copy(x.begin(), x.end(), out.data());
    return out;
}


// ---- Timing oracle ------------------------------------------------------

/**
 * One phase as the original timing model described it: an explicit
 * NT accumulate cost per node.
 */
struct NaivePhaseWork {
    NodeId n_nodes = 0;
    std::vector<std::uint64_t> acc_cycles;
    std::uint32_t stream_elems = 0;
    bool has_scatter = false;
    std::uint32_t expansion = 1;
    const std::vector<std::vector<BankWork>> *banks = nullptr;
};

namespace naive_detail {

struct QueueEntry {
    NodeId node = 0;
    std::uint32_t granules = 1;
};

struct NtUnit {
    std::vector<NodeId> nodes;
    std::size_t next = 0;
    bool acc_active = false;
    NodeId acc_node = 0;
    std::uint64_t acc_rem = 0;
    std::uint64_t acc_start = 0;
    std::uint64_t out_start = 0;
    bool pong_full = false;
    NodeId pong_node = 0;
    bool out_active = false;
    NodeId out_node = 0;
    std::uint32_t out_sent = 0;

    bool
    done() const
    {
        return next >= nodes.size() && !acc_active && !pong_full &&
               !out_active;
    }
};

struct Port {
    bool active = false;
    NodeId node = 0;
    std::uint32_t received = 0;
    std::uint32_t emitted_granules = 0;
    std::uint32_t total_granules = 0;
    const std::vector<BankWork> *targets = nullptr;
};

struct MpUnit {
    bool busy = false;
    QueueEntry entry;
    std::uint64_t rem = 0;
    std::uint64_t entry_start = 0;
    std::size_t rr_cursor = 0;
};

inline std::uint32_t
bank_edges(const std::vector<BankWork> &banks, std::uint32_t bank)
{
    for (const auto &bw : banks)
        if (bw.bank == bank)
            return bw.edges;
    return 0;
}

/** Queue-based modes, stepped one cycle at a time over deque FIFOs. */
inline std::uint64_t
simulate(const NaivePhaseWork &w, const EngineConfig &cfg,
         const RunOptions &opts, RunStats &stats, std::uint64_t base,
         bool whole_node_handoff)
{
    const std::uint32_t pn = cfg.p_node, pe = cfg.p_edge;
    const std::uint32_t pa = cfg.p_apply, ps = cfg.p_scatter;
    const std::uint32_t sg_total =
        w.stream_elems == 0
            ? 0
            : static_cast<std::uint32_t>(ceil_div_u64(w.stream_elems, ps));

    std::vector<NtUnit> nt(pn);
    for (NodeId n = 0; n < w.n_nodes; ++n)
        nt[n % pn].nodes.push_back(n);
    std::vector<Port> port(pn);
    std::vector<MpUnit> mp(pe);
    std::vector<Fifo<QueueEntry>> queues;
    for (std::size_t i = 0; i < std::size_t(pn) * pe; ++i)
        queues.emplace_back(cfg.queue_depth);
    auto queue_at = [&](std::uint32_t u, std::uint32_t m) -> auto & {
        return queues[std::size_t(u) * pe + m];
    };

    std::uint64_t work_bound = 1000000;
    for (NodeId n = 0; n < w.n_nodes; ++n) {
        work_bound += w.acc_cycles[n] + w.stream_elems;
        if (w.has_scatter)
            for (const auto &bw : (*w.banks)[n])
                work_bound +=
                    std::uint64_t(bw.edges) * sg_total * w.expansion;
    }
    work_bound = work_bound * 4 + 1000000;

    auto emit = [&](TraceKind kind, std::uint32_t unit, NodeId node,
                    std::uint64_t start, std::uint64_t end) {
        if (opts.capture_trace && end > start)
            stats.trace.push_back(
                {kind, unit, node, base + start, base + end});
    };
    auto all_done = [&] {
        for (const auto &u : nt)
            if (!u.done())
                return false;
        for (const auto &p : port)
            if (p.active)
                return false;
        for (const auto &q : queues)
            if (!q.empty())
                return false;
        for (const auto &m : mp)
            if (m.busy)
                return false;
        return true;
    };

    std::uint64_t cycle = 0;
    while (!all_done()) {
        if (cycle > work_bound)
            throw std::runtime_error("Engine: phase livelock detected");
        ++cycle;

        for (std::uint32_t m = 0; m < pe; ++m) {
            auto &unit = mp[m];
            if (unit.busy) {
                --unit.rem;
                stats.mp_units[m].busy++;
                if (unit.rem == 0) {
                    emit(TraceKind::kMpWork, m, unit.entry.node,
                         unit.entry_start, cycle);
                    unit.busy = false;
                }
                continue;
            }
            bool popped = false;
            for (std::uint32_t probe = 0; probe < pn && !popped; ++probe) {
                std::uint32_t u = (unit.rr_cursor + probe) % pn;
                auto &q = queue_at(u, m);
                if (q.empty())
                    continue;
                unit.entry = q.pop();
                unit.rr_cursor = (u + 1) % pn;
                std::uint32_t deg =
                    bank_edges((*w.banks)[unit.entry.node], m);
                unit.rem = std::uint64_t(deg) * unit.entry.granules *
                           w.expansion;
                if (unit.rem == 0)
                    unit.rem = 1;
                unit.busy = true;
                unit.entry_start = cycle - 1;
                popped = true;
                stats.mp_edge_work[m] +=
                    std::uint64_t(deg) * unit.entry.granules;
                --unit.rem;
                stats.mp_units[m].busy++;
                if (unit.rem == 0) {
                    emit(TraceKind::kMpWork, m, unit.entry.node,
                         unit.entry_start, cycle);
                    unit.busy = false;
                }
            }
            if (!popped && !unit.busy)
                stats.mp_units[m].idle++;
        }

        for (std::uint32_t u = 0; u < pn; ++u) {
            auto &p = port[u];
            if (!p.active)
                continue;
            std::uint32_t pending = p.received - p.emitted_granules * ps;
            bool node_complete = p.received >= w.stream_elems;
            bool can_emit = false;
            std::uint32_t emit_granules = 0;
            if (whole_node_handoff) {
                if (node_complete) {
                    can_emit = true;
                    emit_granules = p.total_granules;
                }
            } else if (pending >= ps || (node_complete && pending > 0)) {
                can_emit = true;
                emit_granules = 1;
            }
            if (!can_emit)
                continue;
            bool room = true;
            for (const auto &bw : *p.targets)
                if (queue_at(u, bw.bank).full())
                    room = false;
            if (!room) {
                stats.adapter_stall_cycles++;
                continue;
            }
            for (const auto &bw : *p.targets) {
                queue_at(u, bw.bank).push({p.node, emit_granules});
                stats.queue_total_pushes++;
            }
            p.emitted_granules += emit_granules;
            if (p.emitted_granules >= p.total_granules)
                p.active = false;
        }

        for (std::uint32_t u = 0; u < pn; ++u) {
            auto &unit = nt[u];
            if (unit.out_active) {
                bool delivered = false;
                if (!w.has_scatter || (*w.banks)[unit.out_node].empty()) {
                    unit.out_sent += pa;
                    delivered = true;
                } else {
                    auto &p = port[u];
                    std::uint32_t cap = 2 * std::max(pa, ps);
                    std::uint32_t buffered =
                        p.received - p.emitted_granules * ps;
                    bool room = whole_node_handoff
                        ? p.received < w.stream_elems
                        : buffered + pa <= cap + ps;
                    if (room) {
                        p.received = std::min<std::uint32_t>(
                            p.received + pa, w.stream_elems);
                        unit.out_sent += pa;
                        delivered = true;
                    }
                }
                if (delivered && unit.out_sent >= w.stream_elems) {
                    emit(TraceKind::kNtOutput, u, unit.out_node,
                         unit.out_start, cycle);
                    unit.out_active = false;
                }
            }
            if (!unit.out_active && unit.pong_full) {
                bool port_free = true;
                if (w.has_scatter && !(*w.banks)[unit.pong_node].empty())
                    port_free = !port[u].active;
                if (port_free && w.stream_elems > 0) {
                    unit.out_active = true;
                    unit.out_node = unit.pong_node;
                    unit.out_sent = 0;
                    unit.out_start = cycle;
                    unit.pong_full = false;
                    if (w.has_scatter &&
                        !(*w.banks)[unit.out_node].empty()) {
                        auto &p = port[u];
                        p.active = true;
                        p.node = unit.out_node;
                        p.received = 0;
                        p.emitted_granules = 0;
                        p.total_granules = sg_total;
                        p.targets = &(*w.banks)[unit.out_node];
                    }
                } else if (w.stream_elems == 0) {
                    unit.pong_full = false;
                }
            }
        }

        for (std::uint32_t u = 0; u < pn; ++u) {
            auto &unit = nt[u];
            bool was_busy = unit.acc_active || unit.out_active;
            if (unit.acc_active) {
                --unit.acc_rem;
                if (unit.acc_rem == 0) {
                    emit(TraceKind::kNtAccumulate, u, unit.acc_node,
                         unit.acc_start, cycle);
                    unit.acc_active = false;
                    unit.pong_full = true;
                    unit.pong_node = unit.acc_node;
                }
            }
            if (!unit.acc_active && !unit.pong_full &&
                unit.next < unit.nodes.size()) {
                unit.acc_node = unit.nodes[unit.next++];
                std::uint64_t c = w.acc_cycles[unit.acc_node];
                if (c == 0) {
                    unit.pong_full = true;
                    unit.pong_node = unit.acc_node;
                } else {
                    unit.acc_active = true;
                    unit.acc_rem = c;
                    unit.acc_start = cycle;
                }
            }
            if (was_busy)
                stats.nt_units[u].busy++;
            else
                stats.nt_units[u].idle++;
        }
    }
    for (const auto &q : queues)
        stats.queue_peak_occupancy =
            std::max(stats.queue_peak_occupancy, q.peak_occupancy());
    return cycle;
}

inline std::uint64_t
mp_cycles(const NaivePhaseWork &w, const EngineConfig &cfg, NodeId n,
          std::uint32_t bank)
{
    if (!w.has_scatter)
        return 0;
    return std::uint64_t(bank_edges((*w.banks)[n], bank)) *
           ceil_div_u64(w.stream_elems, cfg.p_scatter) * w.expansion;
}

inline std::uint64_t
nt_cycles(const NaivePhaseWork &w, const EngineConfig &cfg, NodeId n)
{
    return w.acc_cycles[n] + ceil_div_u64(w.stream_elems, cfg.p_apply);
}

/** Fig. 4(a) closed form. */
inline std::uint64_t
nonpipelined(const NaivePhaseWork &w, const EngineConfig &cfg,
             RunStats &stats)
{
    std::vector<std::uint64_t> nt_unit(cfg.p_node, 0);
    for (NodeId n = 0; n < w.n_nodes; ++n)
        nt_unit[n % cfg.p_node] += nt_cycles(w, cfg, n);
    std::vector<std::uint64_t> mp_unit(cfg.p_edge, 0);
    if (w.has_scatter)
        for (NodeId n = 0; n < w.n_nodes; ++n)
            for (const auto &bw : (*w.banks)[n]) {
                mp_unit[bw.bank] += mp_cycles(w, cfg, n, bw.bank);
                stats.mp_edge_work[bw.bank] +=
                    std::uint64_t(bw.edges) *
                    ceil_div_u64(w.stream_elems, cfg.p_scatter);
            }
    const std::uint64_t total =
        *std::max_element(nt_unit.begin(), nt_unit.end()) +
        *std::max_element(mp_unit.begin(), mp_unit.end());
    for (std::uint32_t u = 0; u < cfg.p_node; ++u) {
        stats.nt_units[u].busy += nt_unit[u];
        stats.nt_units[u].idle += total - nt_unit[u];
    }
    for (std::uint32_t m = 0; m < cfg.p_edge; ++m) {
        stats.mp_units[m].busy += mp_unit[m];
        stats.mp_units[m].idle += total - mp_unit[m];
    }
    return total;
}

/** Fig. 4(b) closed form. */
inline std::uint64_t
fixed_pipeline(const NaivePhaseWork &w, const EngineConfig &cfg,
               RunStats &stats)
{
    auto mp_total = [&](NodeId n) {
        std::uint64_t c = 0;
        if (w.has_scatter)
            for (const auto &bw : (*w.banks)[n])
                c += mp_cycles(w, cfg, n, bw.bank);
        return c;
    };
    std::uint64_t total = 0, nt_busy = 0, mp_busy = 0;
    for (NodeId n = 0; n < w.n_nodes; ++n) {
        std::uint64_t nt_c = nt_cycles(w, cfg, n);
        std::uint64_t mp_c = n == 0 ? 0 : mp_total(n - 1);
        total += std::max(nt_c, mp_c);
        nt_busy += nt_c;
        mp_busy += mp_c;
    }
    if (w.n_nodes > 0)
        total += mp_total(w.n_nodes - 1);
    if (w.has_scatter) {
        for (NodeId n = 0; n < w.n_nodes; ++n)
            for (const auto &bw : (*w.banks)[n])
                stats.mp_edge_work[bw.bank] +=
                    std::uint64_t(bw.edges) *
                    ceil_div_u64(w.stream_elems, cfg.p_scatter);
        if (w.n_nodes > 0)
            mp_busy += mp_total(w.n_nodes - 1);
    }
    stats.nt_units[0].busy += nt_busy;
    stats.nt_units[0].idle += total - nt_busy;
    stats.mp_units[0].busy += mp_busy;
    stats.mp_units[0].idle += total - mp_busy;
    return total;
}

/** Destination-bank split, counted per source node through a map. */
inline std::vector<std::vector<BankWork>>
split_banks(const CooGraph &graph, const EngineConfig &cfg)
{
    std::vector<std::uint32_t> bank_of;
    if (cfg.bank_policy == BankPolicy::kGreedyBalanced) {
        bank_of = balanced_bank_assignment(graph, cfg.p_edge);
    } else {
        for (NodeId v = 0; v < graph.num_nodes; ++v)
            bank_of.push_back(v % cfg.p_edge);
    }
    std::vector<std::vector<std::uint32_t>> count(
        graph.num_nodes, std::vector<std::uint32_t>(cfg.p_edge, 0));
    for (const Edge &e : graph.edges)
        ++count[e.src][bank_of[e.dst]];
    std::vector<std::vector<BankWork>> banks(graph.num_nodes);
    for (NodeId v = 0; v < graph.num_nodes; ++v)
        for (std::uint32_t b = 0; b < cfg.p_edge; ++b)
            if (count[v][b] != 0)
                banks[v].push_back({b, count[v][b]});
    return banks;
}

} // namespace naive_detail

/**
 * The independent timing oracle for one phase: the original model,
 * frozen — every cycle stepped, deque FIFOs at the configured depth, no
 * event skipping and no replay. Trace events are offset by `base`.
 */
inline std::uint64_t
naive_run_phase(const NaivePhaseWork &w, const EngineConfig &cfg,
                const RunOptions &opts, RunStats &stats,
                std::uint64_t base = 0)
{
    switch (cfg.mode) {
      case PipelineMode::kNonPipelined:
        return naive_detail::nonpipelined(w, cfg, stats);
      case PipelineMode::kFixedPipeline:
        return naive_detail::fixed_pipeline(w, cfg, stats);
      case PipelineMode::kBaselineDataflow:
        return naive_detail::simulate(w, cfg, opts, stats, base, true);
      case PipelineMode::kFlowGnn:
        return naive_detail::simulate(w, cfg, opts, stats, base, false);
    }
    throw std::logic_error("oracle: unknown pipeline mode");
}

namespace naive_detail {

/**
 * The original per-stage loop of one die: scatter phases run over all
 * locals (ghosts at their re-stream cost), node-local phases over the
 * owned prefix, a zero-cost second round for GAT; then the GAT
 * epilogue and the head. `is_owned` empty means every node is owned.
 */
inline void
price_run(const Model &model, const EngineConfig &cfg,
          const RunOptions &opts, const CooGraph &graph,
          const std::vector<std::uint8_t> &is_owned, NodeId n_owned,
          RunStats &stats)
{
    const auto banks = split_banks(graph, cfg);
    const std::vector<StageSchedule> schedule =
        build_stage_schedule(model, cfg);
    std::uint64_t base = 0;
    for (const StageSchedule &sched : schedule) {
        NaivePhaseWork w;
        w.stream_elems = sched.stream_elems;
        w.has_scatter = sched.has_scatter;
        w.expansion = sched.expansion;
        w.banks = &banks;
        if (sched.has_scatter) {
            w.n_nodes = graph.num_nodes;
            const std::uint64_t ghost_acc =
                sched.is_gat ? sched.nt_pass_cycles : 0;
            for (NodeId v = 0; v < graph.num_nodes; ++v)
                w.acc_cycles.push_back(is_owned.empty() || is_owned[v]
                                           ? sched.acc_cycles
                                           : ghost_acc);
        } else {
            w.n_nodes = n_owned;
            w.acc_cycles.assign(n_owned, sched.acc_cycles);
        }
        std::uint64_t cycles =
            naive_run_phase(w, cfg, opts, stats, base);
        if (sched.is_gat) {
            w.acc_cycles.assign(w.n_nodes, 0);
            cycles += naive_run_phase(w, cfg, opts, stats,
                                           base + cycles);
        }
        base += cycles;
        stats.phase_cycles.push_back(cycles);
        stats.total_cycles += cycles;
    }
    if (schedule.back().is_gat) {
        const std::uint64_t epi =
            ceil_div_u64(n_owned, cfg.p_node) *
            ceil_div_u64(model.stage(model.num_stages() - 1).out_dim(),
                         cfg.p_apply);
        stats.phase_cycles.push_back(epi);
        stats.total_cycles += epi;
    }
    for (std::size_t l = 0; l < model.head().num_layers(); ++l)
        stats.head_cycles +=
            ceil_div_u64(model.head().layer(l).in_dim(), cfg.p_apply);
    stats.total_cycles += stats.head_cycles + stats.load_cycles;
}

inline RunStats
fresh_stats(const EngineConfig &cfg)
{
    RunStats s;
    s.clock_mhz = cfg.clock_mhz;
    s.nt_units.assign(cfg.p_node, {});
    s.mp_units.assign(cfg.p_edge, {});
    s.mp_edge_work.assign(cfg.p_edge, 0);
    return s;
}

} // namespace naive_detail

/**
 * The oracle's RunStats for a whole single-die Engine run of a
 * prepared sample: input DMA, every stage, epilogue and head.
 */
inline RunStats
naive_engine_stats(const Model &model, const GraphSample &prepared,
                   const EngineConfig &cfg, const RunOptions &opts = {})
{
    RunStats stats = naive_detail::fresh_stats(cfg);
    const NodeId n = prepared.num_nodes();
    stats.load_cycles = ceil_div_u64(
        std::uint64_t(n) * (prepared.node_dim() + 1) +
            std::uint64_t(prepared.num_edges()) * (prepared.edge_dim() + 2),
        64);
    naive_detail::price_run(model, cfg, opts, prepared.graph, {}, n, stats);
    return stats;
}

/** Die `t`'s local subgraph of a ghost plan, copied out of its slice. */
inline CooGraph
ghost_local_coo(const GhostPlan &plan, std::size_t t)
{
    const GraphRef local = plan.local_graph(t);
    CooGraph coo;
    coo.num_nodes = local.num_nodes();
    for (std::size_t i = 0; i < local.num_edges(); ++i)
        coo.edges.push_back({local.src(i), local.dst(i)});
    return coo;
}

/** The oracle's RunStats for die `t` of a ghost-exchange plan. */
inline RunStats
naive_ghost_die_stats(const Model &model, const GhostPlan &plan,
                      std::size_t t, const EngineConfig &cfg,
                      const RunOptions &opts, std::size_t node_dim,
                      std::size_t edge_dim)
{
    const GhostShard &shard = plan.shards[t];
    const CooGraph local = ghost_local_coo(plan, t);
    RunStats stats = naive_detail::fresh_stats(cfg);
    const NodeId n_owned = static_cast<NodeId>(shard.info.owned_nodes);
    stats.load_cycles = ceil_div_u64(
        std::uint64_t(n_owned) * (node_dim + 1) +
            std::uint64_t(local.edges.size()) * (edge_dim + 2) +
            shard.info.ghost_nodes,
        64);
    naive_detail::price_run(model, cfg, opts, local, shard.is_owned,
                            n_owned, stats);
    return stats;
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

// ---- Frozen partitioning references ---------------------------------
//
// The adjacency build and the streaming partitioner exactly as they
// were before the label-array pass, the integer histograms and the
// in-place dedupe: the differential sweep in test_streaming_partition
// requires the library to match them bit for bit (CSR offsets and
// neighbors, every assignment) at every thread count.

/** The symmetrized, deduplicated adjacency, built the frozen way:
 * a zero-filled list, per-row dedupe, a serial left-shift
 * compaction and a shrink. */
inline UndirectedCsr
naive_build_undirected_csr(const GraphRef &graph, unsigned threads)
{
    const NodeId n = graph.num_nodes();
    const std::size_t e = graph.num_edges();
    UndirectedCsr out;
    out.offsets.assign(std::size_t(n) + 1, 0);

    // Pass 1: symmetrized counts, duplicates included (self-loops are
    // dropped here: a node is never its own neighbor). Per-thread
    // count arrays; a non-self edge contributes one entry to each
    // endpoint's row.
    const unsigned T = parallel_range_count(e, threads);
    std::vector<std::vector<std::uint32_t>> counts(
        T, std::vector<std::uint32_t>(n, 0));
    parallel_ranges(
        e, threads, [&](std::size_t b, std::size_t end, unsigned tid) {
            std::vector<std::uint32_t> &c = counts[tid];
            for (std::size_t i = b; i < end; ++i) {
                const NodeId s = graph.src(i);
                const NodeId d = graph.dst(i);
                if (s >= n || d >= n)
                    throw std::invalid_argument(
                        "build_undirected_csr: edge endpoint out of "
                        "range");
                if (s == d)
                    continue;
                ++c[s];
                ++c[d];
            }
        });

    // Prefix scan in (node, thread) order: cursors[t][v] becomes the
    // first slot thread t fills in row v. The per-range fill visits
    // edges in stream order within each contiguous ascending range,
    // so concatenating ranges in thread order reproduces the serial
    // stream order exactly. Cursors are size_t: a symmetrized list
    // holds up to 2 * num_edges entries, which can exceed 32 bits.
    std::vector<std::vector<std::size_t>> cursors(T);
    std::size_t running = 0;
    for (unsigned t = 0; t < T; ++t)
        cursors[t].resize(n);
    for (NodeId v = 0; v < n; ++v) {
        out.offsets[v] = running;
        for (unsigned t = 0; t < T; ++t) {
            cursors[t][v] = running;
            running += counts[t][v];
        }
    }
    out.offsets[n] = running;
    counts.clear();
    counts.shrink_to_fit();

    out.nbr.resize(running);
    parallel_ranges(
        e, threads, [&](std::size_t b, std::size_t end, unsigned tid) {
            std::vector<std::size_t> &cur = cursors[tid];
            for (std::size_t i = b; i < end; ++i) {
                const NodeId s = graph.src(i);
                const NodeId d = graph.dst(i);
                if (s == d)
                    continue;
                out.nbr[cur[s]++] = d;
                out.nbr[cur[d]++] = s;
            }
        });
    cursors.clear();
    cursors.shrink_to_fit();

    // Pass 2: compact each row in place, keeping only the first
    // occurrence of every neighbor (order-preserving dedupe — a
    // multigraph and its simple graph yield the same rows). Rows are
    // disjoint, so threads dedupe disjoint row ranges with private
    // seen[] arrays; seen[u] holds the last row that admitted u, and
    // a thread visits its rows in ascending order, so `seen[u] == v`
    // means "already in row v".
    std::vector<std::size_t> new_len(n);
    parallel_ranges(
        n, threads, [&](std::size_t b, std::size_t end, unsigned) {
            std::vector<NodeId> seen(n, n);
            for (std::size_t v = b; v < end; ++v) {
                std::size_t w = out.offsets[v];
                for (std::size_t i = out.offsets[v];
                     i < out.offsets[v + 1]; ++i) {
                    NodeId u = out.nbr[i];
                    if (seen[u] == v)
                        continue;
                    seen[u] = static_cast<NodeId>(v);
                    out.nbr[w++] = u;
                }
                new_len[v] = w - out.offsets[v];
            }
        });

    // Serial left-shift compaction of the deduped rows (dest always
    // precedes source, so forward copies are safe).
    std::size_t w = 0;
    std::vector<std::size_t> compact_offsets(std::size_t(n) + 1, 0);
    for (NodeId v = 0; v < n; ++v) {
        compact_offsets[v] = w;
        const std::size_t begin = out.offsets[v];
        if (w != begin)
            std::copy(out.nbr.begin() + begin,
                      out.nbr.begin() + begin + new_len[v],
                      out.nbr.begin() + w);
        w += new_len[v];
    }
    compact_offsets[n] = w;
    out.nbr.resize(w);
    out.nbr.shrink_to_fit();
    out.offsets = std::move(compact_offsets);
    return out;
}

enum class NaiveStreamKind { kLdg, kFennel, kHdrf };

constexpr std::uint32_t kNaiveUnassigned = 0xFFFFFFFFu;

/** The frozen streaming pass: a double score per neighbor, the
 * assignment / prior double lookup, and a touched-list reset. With
 * `weight`, a plain transcription of the weighted balance: loads are
 * 64-bit weight sums W_p, ideal = ceil(W/P), cap = max(ideal,
 * ceil(slack * ideal)), a partition is eligible while W_p < cap, LDG
 * scales by 1 - W_p/ideal, Fennel's alpha = m * P^(gamma-1) / W^gamma
 * and its penalty is alpha * gamma * w_v * W_p^(gamma-1), and HDRF's
 * balance term reads the weighted loads. */
inline std::vector<std::uint32_t>
naive_stream_partition(const UndirectedCsr &adj,
                       std::uint32_t num_partitions,
                       const StreamingPartitionConfig &config,
                       NaiveStreamKind kind,
                       const std::vector<std::uint32_t> *prior,
                       const std::vector<std::uint32_t> *weight = nullptr)
{
    if (num_partitions == 0)
        throw std::invalid_argument(
            "stream_partition: num_partitions must be > 0");
    if (config.balance_slack < 1.0)
        throw std::invalid_argument(
            "stream_partition: balance_slack must be >= 1");

    const NodeId n = adj.num_nodes();
    if (prior != nullptr && prior->size() != n)
        throw std::invalid_argument(
            "stream_partition: prior assignment size mismatch");
    std::vector<std::uint32_t> assignment(n, 0);
    if (n == 0 || num_partitions == 1)
        return assignment;

    const std::uint32_t P = num_partitions;
    auto w_of = [&](NodeId v) -> std::uint64_t {
        return weight == nullptr ? 1 : (*weight)[v];
    };
    std::uint64_t total = 0;
    for (NodeId v = 0; v < n; ++v)
        total += w_of(v);

    const std::uint64_t ideal = (total + P - 1) / P;
    const std::uint64_t cap = std::max<std::uint64_t>(
        ideal,
        static_cast<std::uint64_t>(
            std::ceil(config.balance_slack * double(ideal))));

    // Fennel's standard alpha = m * P^(gamma-1) / W^gamma, with m the
    // number of distinct undirected edges.
    const double gamma = config.fennel_gamma;
    const double m_und = double(adj.nbr.size()) / 2.0;
    const double alpha =
        m_und * std::pow(double(P), gamma - 1.0) /
        std::pow(double(total), gamma);

    std::fill(assignment.begin(), assignment.end(), kNaiveUnassigned);
    std::vector<std::uint64_t> load(P, 0);
    std::vector<double> pull(P, 0.0); ///< per-partition neighbor score
    std::vector<std::uint32_t> touched;
    touched.reserve(P);

    for (NodeId v = 0; v < n; ++v) {
        const double dv = adj.degree(v);
        for (std::size_t i = adj.row_begin(v); i < adj.row_end(v);
             ++i) {
            std::uint32_t p = assignment[adj.nbr[i]];
            // Restreaming: a neighbor not yet re-placed this pass
            // contributes its prior-pass partition instead of nothing.
            if (p == kNaiveUnassigned && prior != nullptr)
                p = (*prior)[adj.nbr[i]];
            if (p == kNaiveUnassigned || p >= P)
                continue; // not yet streamed (cold pass)
            if (pull[p] == 0.0)
                touched.push_back(p);
            if (kind == NaiveStreamKind::kHdrf) {
                // Low-degree neighbors pull harder than hubs: weight
                // 2 - d(u)/(d(u)+d(v)), in (1, 2).
                const double du = adj.degree(adj.nbr[i]);
                pull[p] += 2.0 - du / (du + dv);
            } else {
                pull[p] += 1.0;
            }
        }

        double max_load = 0.0;
        double min_load = 0.0;
        if (kind == NaiveStreamKind::kHdrf) {
            auto [mn, mx] = std::minmax_element(load.begin(), load.end());
            min_load = double(*mn);
            max_load = double(*mx);
        }

        std::uint32_t best = kNaiveUnassigned;
        double best_score = 0.0;
        std::uint64_t best_load = 0;
        for (std::uint32_t p = 0; p < P; ++p) {
            if (load[p] >= cap)
                continue; // hard balance bound
            double score = 0.0;
            switch (kind) {
              case NaiveStreamKind::kLdg:
                score = pull[p] * (1.0 - double(load[p]) / double(ideal));
                break;
              case NaiveStreamKind::kFennel:
                score = pull[p] -
                        alpha * gamma * double(w_of(v)) *
                            std::pow(double(load[p]), gamma - 1.0);
                break;
              case NaiveStreamKind::kHdrf:
                score = pull[p] +
                        config.hdrf_lambda * (max_load - double(load[p])) /
                            (1.0 + max_load - min_load);
                break;
            }
            if (best == kNaiveUnassigned || score > best_score ||
                (score == best_score && load[p] < best_load)) {
                best = p;
                best_score = score;
                best_load = load[p];
            }
        }
        assignment[v] = best;
        load[best] += w_of(v);

        for (std::uint32_t p : touched)
            pull[p] = 0.0;
        touched.clear();
    }
    return assignment;
}

} // namespace flowgnn::testing

#endif // FLOWGNN_TESTS_TESTING_UTIL_H
