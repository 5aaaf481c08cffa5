#include "core/phase_model.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "graph/partition.h"

namespace flowgnn {

namespace {

/** One entry in an adapter-to-MP queue. */
struct QueueEntry {
    NodeId node = 0;
    std::uint32_t granules = 1; ///< scatter granules carried
};

/**
 * The Pnode x Pedge adapter-to-MP FIFOs of one phase: fixed ring
 * buffers carved out of one flat slot array. Queue q holds at most
 * cap[q] = min(queue_depth, entries the phase pushes into q) entries;
 * below the configured depth the bound is never reached before the
 * queue's last push, so backpressure is exactly that of a
 * queue_depth-deep FIFO, while storage stays bounded by the phase's
 * real traffic whatever depth the user configured.
 */
class QueueRings
{
  public:
    /** `pushes[q]` is the number of entries the phase pushes into q. */
    QueueRings(const std::vector<std::uint64_t> &pushes, std::size_t depth)
        : rings_(pushes.size())
    {
        std::size_t total = 0;
        for (std::size_t q = 0; q < pushes.size(); ++q) {
            rings_[q].base = total;
            rings_[q].cap = static_cast<std::size_t>(
                std::min<std::uint64_t>(depth, pushes[q]));
            total += rings_[q].cap;
        }
        slots_.resize(total);
    }

    bool empty(std::size_t q) const { return rings_[q].size == 0; }
    bool full(std::size_t q) const
    {
        return rings_[q].size >= rings_[q].cap;
    }
    /** Entries queued across all rings. */
    std::size_t queued() const { return queued_; }

    /** Enqueues; call only when !full(q). */
    void
    push(std::size_t q, QueueEntry e)
    {
        Ring &r = rings_[q];
        std::size_t tail = r.head + r.size;
        if (tail >= r.cap)
            tail -= r.cap;
        slots_[r.base + tail] = e;
        ++r.size;
        ++queued_;
        r.peak = std::max(r.peak, r.size);
    }

    /** Dequeues the oldest entry; call only when !empty(q). */
    QueueEntry
    pop(std::size_t q)
    {
        Ring &r = rings_[q];
        QueueEntry e = slots_[r.base + r.head];
        if (++r.head == r.cap)
            r.head = 0;
        --r.size;
        --queued_;
        return e;
    }

    /** Largest occupancy any ring reached. */
    std::size_t
    peak_occupancy() const
    {
        std::size_t peak = 0;
        for (const Ring &r : rings_)
            peak = std::max(peak, r.peak);
        return peak;
    }

  private:
    struct Ring {
        std::size_t base = 0; ///< first slot in slots_
        std::size_t cap = 0;
        std::size_t head = 0; ///< slot offset of the oldest entry
        std::size_t size = 0;
        std::size_t peak = 0;
    };
    std::vector<Ring> rings_;
    std::vector<QueueEntry> slots_;
    std::size_t queued_ = 0;
};

/** NT unit: double-buffered accumulate/output state machine. Unit u
 * owns nodes u, u + Pnode, u + 2 Pnode, ... in that order. */
struct NtUnitState {
    std::uint64_t next = 0; ///< next node to start accumulating
    bool acc_active = false;
    NodeId acc_node = 0;
    std::uint64_t acc_rem = 0;
    std::uint64_t acc_start = 0; ///< cycle the accumulate began (trace)
    std::uint64_t out_start = 0; ///< cycle the output began (trace)
    bool pong_full = false; ///< node finished acc, waiting to stream
    NodeId pong_node = 0;
    bool out_active = false;
    NodeId out_node = 0;
    std::uint32_t out_sent = 0; ///< elements streamed so far

    bool
    done(NodeId n_nodes) const
    {
        return next >= n_nodes && !acc_active && !pong_full &&
               !out_active;
    }
};

/** Adapter port: Papply -> Pscatter re-batching + multicast. */
struct AdapterPort {
    bool active = false;
    NodeId node = 0;
    std::uint32_t received = 0; ///< elements received from NT
    std::uint32_t emitted_granules = 0;
    std::uint32_t total_granules = 0;
    const std::vector<BankWork> *targets = nullptr;
};

/** MP unit: consumes queue entries, one edge-granule per cycle. */
struct MpUnitState {
    bool busy = false;
    QueueEntry entry;
    std::uint64_t rem = 0;
    std::uint64_t entry_start = 0; ///< cycle the entry began (trace)
    std::uint32_t rr_cursor = 0; ///< round-robin over source queues
};

std::uint32_t
bank_edges(const std::vector<BankWork> &banks, std::uint32_t bank)
{
    for (const auto &bw : banks)
        if (bw.bank == bank)
            return bw.edges;
    return 0;
}

/**
 * Cycle-stepped simulation of one phase for the queue-based modes
 * (baseline dataflow and FlowGNN). whole_node_handoff selects the
 * baseline behaviour where MP only starts a node after its entire
 * embedding arrived (Fig. 4(c) vs (d)).
 *
 * A cycle that changes nothing but the two countdowns (an MP entry's
 * `rem`, an NT accumulate's `acc_rem`) leaves every predicate the next
 * cycle reads as it was, so it repeats identically until the nearest
 * countdown expires; the loop then jumps straight there, adding the
 * repeated cycles' busy/idle and stall counts in one step.
 */
std::uint64_t
simulate_phase(const PhaseEnv &env, bool whole_node_handoff)
{
    const PhaseWork &w = env.work;
    const EngineConfig &cfg = env.cfg;
    RunStats &stats = env.stats;
    const std::uint32_t pn = cfg.p_node;
    const std::uint32_t pe = cfg.p_edge;
    const std::uint32_t pa = cfg.p_apply;
    const std::uint32_t ps = cfg.p_scatter;
    const std::uint32_t sg_total =
        w.stream_elems == 0
            ? 0
            : static_cast<std::uint32_t>(
                  ceil_div_u64(w.stream_elems, ps));
    const std::uint32_t pushes_per_target =
        whole_node_handoff ? (sg_total > 0 ? 1 : 0) : sg_total;

    // Generous livelock guard (every unit of work costs >= 1 cycle),
    // and the entries each queue will receive, which sizes its ring.
    std::uint64_t work_bound = 1000000;
    std::vector<std::uint64_t> pushes(std::size_t(pn) * pe, 0);
    for (NodeId n = 0; n < w.n_nodes; ++n) {
        work_bound += w.acc_of(n) + w.stream_elems;
        if (w.has_scatter)
            for (const auto &bw : (*w.banks)[n]) {
                work_bound +=
                    std::uint64_t(bw.edges) * sg_total * w.expansion;
                pushes[std::size_t(n % pn) * pe + bw.bank] +=
                    pushes_per_target;
            }
    }
    work_bound = work_bound * 4 + 1000000;

    std::vector<NtUnitState> nt(pn);
    for (std::uint32_t u = 0; u < pn; ++u)
        nt[u].next = u;
    std::vector<AdapterPort> port(pn);
    std::vector<MpUnitState> mp(pe);
    QueueRings queues(pushes, cfg.queue_depth);
    auto queue_id = [pe](std::uint32_t u, std::uint32_t m) {
        return std::size_t(u) * pe + m;
    };

    const bool tracing = env.opts.capture_trace;
    auto emit = [&](TraceKind kind, std::uint32_t unit, NodeId node,
                    std::uint64_t start, std::uint64_t end) {
        if (tracing && end > start)
            stats.trace.push_back({kind, unit, node,
                                   env.base_cycle + start,
                                   env.base_cycle + end});
    };

    auto all_done = [&] {
        for (const auto &u : nt)
            if (!u.done(w.n_nodes))
                return false;
        for (const auto &p : port)
            if (p.active)
                return false;
        for (const auto &m : mp)
            if (m.busy)
                return false;
        return queues.queued() == 0;
    };

    std::uint64_t cycle = 0;
    bool done = all_done();
    while (!done) {
        if (cycle > work_bound)
            throw std::runtime_error("Engine: phase livelock detected");
        ++cycle;
        bool changed = false;      // any state besides the countdowns
        std::uint64_t stalls = 0;  // adapter stalls this cycle

        // 1. MP units consume (oldest pipeline stage first so data
        //    moves at most one hop per cycle).
        for (std::uint32_t m = 0; m < pe; ++m) {
            auto &unit = mp[m];
            if (unit.busy) {
                --unit.rem;
                stats.mp_units[m].busy++;
                if (unit.rem == 0) {
                    emit(TraceKind::kMpWork, m, unit.entry.node,
                         unit.entry_start, cycle);
                    unit.busy = false;
                    changed = true;
                }
                continue;
            }
            // Pop next entry, round-robin over source NT queues.
            bool popped = false;
            for (std::uint32_t probe = 0; probe < pn && !popped; ++probe) {
                // (cursor + probe) % pn, without a division per probe.
                std::uint32_t u = unit.rr_cursor + probe;
                if (u >= pn)
                    u -= pn;
                const std::size_t q = queue_id(u, m);
                if (queues.empty(q))
                    continue;
                unit.entry = queues.pop(q);
                unit.rr_cursor = u + 1 == pn ? 0 : u + 1;
                std::uint32_t deg =
                    bank_edges((*w.banks)[unit.entry.node], m);
                unit.rem = std::uint64_t(deg) * unit.entry.granules *
                           w.expansion;
                if (unit.rem == 0)
                    unit.rem = 1; // entry consumption itself
                unit.busy = true;
                unit.entry_start = cycle - 1;
                popped = true;
                changed = true;
                stats.mp_edge_work[m] +=
                    std::uint64_t(deg) * unit.entry.granules;
                // Spend this cycle on the first unit of work.
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

        // 2. Adapter ports: re-batch and multicast.
        for (std::uint32_t u = 0; u < pn; ++u) {
            auto &p = port[u];
            if (!p.active)
                continue;
            std::uint32_t pending =
                p.received - p.emitted_granules * ps;
            bool node_complete = (p.received >= w.stream_elems);
            bool can_emit = false;
            std::uint32_t emit_granules = 0;
            if (whole_node_handoff) {
                // Baseline dataflow: one entry per node, only once the
                // full embedding has arrived.
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

            // All-or-nothing multicast: every target queue needs room.
            bool room = true;
            for (const auto &bw : *p.targets)
                if (queues.full(queue_id(u, bw.bank)))
                    room = false;
            if (!room) {
                stats.adapter_stall_cycles++;
                ++stalls;
                continue;
            }
            QueueEntry entry{p.node, emit_granules};
            for (const auto &bw : *p.targets) {
                queues.push(queue_id(u, bw.bank), entry);
                stats.queue_total_pushes++;
            }
            p.emitted_granules += emit_granules;
            if (p.emitted_granules >= p.total_granules)
                p.active = false;
            changed = true;
        }

        // 3. NT output streams into the adapter (or directly to the
        //    node buffer when the phase has no scatter targets).
        for (std::uint32_t u = 0; u < pn; ++u) {
            auto &unit = nt[u];
            if (unit.out_active) {
                bool delivered = false;
                if (!w.has_scatter || (*w.banks)[unit.out_node].empty()) {
                    // Plain write to the node embedding buffer.
                    unit.out_sent += pa;
                    delivered = true;
                } else {
                    auto &p = port[u];
                    // Bounded skid buffer in the adapter register; in
                    // whole-node handoff mode the register models the
                    // full ping-pong embedding buffer, so any not-yet
                    // -complete embedding can absorb the next (final
                    // beat possibly partial) delivery — gating it on
                    // the granule-mode slack would wedge the pipeline
                    // whenever Papply does not divide the embedding.
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
                changed |= delivered;
                if (delivered && unit.out_sent >= w.stream_elems) {
                    emit(TraceKind::kNtOutput, u, unit.out_node,
                         unit.out_start, cycle);
                    unit.out_active = false;
                }
            }
            // Promote a finished node from the pong slot to output,
            // provided the adapter port is free for a new node.
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
                    changed = true;
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
                    unit.pong_full = false; // nothing to stream
                    changed = true;
                }
            }
        }

        // 4. NT accumulate: advance, complete into the pong slot, and
        //    start the next node when double buffering allows.
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
                    changed = true;
                }
            }
            if (!unit.acc_active && !unit.pong_full &&
                unit.next < w.n_nodes) {
                unit.acc_node = static_cast<NodeId>(unit.next);
                unit.next += pn;
                changed = true;
                std::uint64_t c = w.acc_of(unit.acc_node);
                if (c == 0) {
                    // Zero-cost accumulate (the re-stream round of GAT,
                    // or a ghost node whose embedding arrived over the
                    // inter-die link): complete immediately into the
                    // pong slot.
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

        if (changed) {
            done = all_done();
            continue;
        }

        // Quiet cycle: it repeats until the nearest countdown reaches
        // zero. Without a running countdown it would repeat forever, so
        // step on and let the livelock guard fire.
        std::uint64_t skip = std::numeric_limits<std::uint64_t>::max();
        for (const auto &unit : mp)
            if (unit.busy)
                skip = std::min(skip, unit.rem);
        for (const auto &unit : nt)
            if (unit.acc_active)
                skip = std::min(skip, unit.acc_rem);
        if (skip == std::numeric_limits<std::uint64_t>::max() || skip < 2)
            continue;
        skip -= 1; // the cycle that expires a countdown runs normally
        cycle += skip;
        for (std::uint32_t m = 0; m < pe; ++m) {
            if (mp[m].busy) {
                mp[m].rem -= skip;
                stats.mp_units[m].busy += skip;
            } else {
                stats.mp_units[m].idle += skip;
            }
        }
        for (std::uint32_t u = 0; u < pn; ++u) {
            auto &unit = nt[u];
            if (unit.acc_active)
                unit.acc_rem -= skip;
            if (unit.acc_active || unit.out_active)
                stats.nt_units[u].busy += skip;
            else
                stats.nt_units[u].idle += skip;
        }
        stats.adapter_stall_cycles += stalls * skip;
    }

    stats.queue_peak_occupancy =
        std::max(stats.queue_peak_occupancy, queues.peak_occupancy());
    return cycle;
}

/** Per-node NT latency (accumulate + output stream) for the analytic
 * modes, where accumulate and output do not overlap across nodes. */
std::uint64_t
analytic_nt_cycles(const PhaseWork &w, const EngineConfig &cfg, NodeId n)
{
    return w.acc_of(n) + ceil_div_u64(w.stream_elems, cfg.p_apply);
}

/** Per-node MP cost on the unit owning `bank` work. */
std::uint64_t
analytic_mp_cycles(const PhaseWork &w, const EngineConfig &cfg, NodeId n,
                   std::uint32_t bank)
{
    if (!w.has_scatter)
        return 0;
    std::uint64_t sg = ceil_div_u64(w.stream_elems, cfg.p_scatter);
    return std::uint64_t(bank_edges((*w.banks)[n], bank)) * sg *
           w.expansion;
}

/**
 * Fig. 4(a): no pipelining — NT for all nodes completes before any MP
 * begins. Units within each phase still run in parallel.
 */
std::uint64_t
analytic_nonpipelined(const PhaseEnv &env)
{
    const PhaseWork &w = env.work;
    const EngineConfig &cfg = env.cfg;

    std::vector<std::uint64_t> nt_unit(cfg.p_node, 0);
    for (NodeId n = 0; n < w.n_nodes; ++n)
        nt_unit[n % cfg.p_node] += analytic_nt_cycles(w, cfg, n);
    std::uint64_t nt_phase =
        *std::max_element(nt_unit.begin(), nt_unit.end());

    std::vector<std::uint64_t> mp_unit(cfg.p_edge, 0);
    if (w.has_scatter) {
        for (NodeId n = 0; n < w.n_nodes; ++n) {
            for (const auto &bw : (*w.banks)[n]) {
                std::uint64_t c = analytic_mp_cycles(w, cfg, n, bw.bank);
                mp_unit[bw.bank] += c;
                env.stats.mp_edge_work[bw.bank] +=
                    std::uint64_t(bw.edges) *
                    ceil_div_u64(w.stream_elems, cfg.p_scatter);
            }
        }
    }
    std::uint64_t mp_phase =
        *std::max_element(mp_unit.begin(), mp_unit.end());

    // Utilization accounting: each pool is fully idle during the
    // other's phase — the waste this mode illustrates.
    std::uint64_t total = nt_phase + mp_phase;
    for (std::uint32_t u = 0; u < cfg.p_node; ++u) {
        env.stats.nt_units[u].busy += nt_unit[u];
        env.stats.nt_units[u].idle += total - nt_unit[u];
    }
    for (std::uint32_t m = 0; m < cfg.p_edge; ++m) {
        env.stats.mp_units[m].busy += mp_unit[m];
        env.stats.mp_units[m].idle += total - mp_unit[m];
    }
    return total;
}

/**
 * Fig. 4(b): fixed pipelining — NT(k+1) runs in lockstep with MP(k);
 * each step lasts as long as the slower of the pair (modeled with one
 * NT and one MP stream, the structure the figure depicts).
 */
std::uint64_t
analytic_fixed(const PhaseEnv &env)
{
    const PhaseWork &w = env.work;
    const EngineConfig &cfg = env.cfg;

    auto mp_total = [&](NodeId n) {
        std::uint64_t c = 0;
        if (w.has_scatter)
            for (const auto &bw : (*w.banks)[n])
                c += analytic_mp_cycles(w, cfg, n, bw.bank);
        return c;
    };

    std::uint64_t total = 0;
    std::uint64_t nt_busy = 0, mp_busy = 0;
    for (NodeId n = 0; n < w.n_nodes; ++n) {
        std::uint64_t nt_c = analytic_nt_cycles(w, cfg, n);
        std::uint64_t mp_c = (n == 0) ? 0 : mp_total(n - 1);
        total += std::max(nt_c, mp_c);
        nt_busy += nt_c;
        mp_busy += mp_c;
    }
    if (w.n_nodes > 0)
        total += mp_total(w.n_nodes - 1);

    if (w.has_scatter) {
        for (NodeId n = 0; n < w.n_nodes; ++n)
            for (const auto &bw : (*w.banks)[n])
                env.stats.mp_edge_work[bw.bank] +=
                    std::uint64_t(bw.edges) *
                    ceil_div_u64(w.stream_elems, cfg.p_scatter);
        if (w.n_nodes > 0)
            mp_busy += mp_total(w.n_nodes - 1);
    }
    env.stats.nt_units[0].busy += nt_busy;
    env.stats.nt_units[0].idle += total - nt_busy;
    env.stats.mp_units[0].busy += mp_busy;
    env.stats.mp_units[0].idle += total - mp_busy;
    return total;
}

/**
 * The destination-bank split of every node's out-edges, counted
 * straight off the edge stream (no CSR): banks[v] lists (bank, edges
 * of v into that bank) in ascending bank order, empty for sinks.
 * Grows `banks` to the node count; inner vectors keep their capacity
 * across calls.
 */
void
split_banks(const GraphRef &graph, const std::vector<std::uint32_t> &bank_of,
            std::uint32_t p_edge, std::vector<std::vector<BankWork>> &banks)
{
    const NodeId n = graph.num_nodes();
    std::vector<std::uint32_t> count(std::size_t(n) * p_edge, 0);
    for (std::size_t i = 0; i < graph.num_edges(); ++i)
        ++count[std::size_t(graph.src(i)) * p_edge + bank_of[graph.dst(i)]];
    if (banks.size() < n)
        banks.resize(n);
    for (NodeId v = 0; v < n; ++v) {
        banks[v].clear();
        for (std::uint32_t b = 0; b < p_edge; ++b)
            if (const std::uint32_t c = count[std::size_t(v) * p_edge + b])
                banks[v].push_back({b, c});
    }
}

} // namespace

std::uint64_t
run_phase(const PhaseEnv &env)
{
    switch (env.cfg.mode) {
      case PipelineMode::kNonPipelined:
        return analytic_nonpipelined(env);
      case PipelineMode::kFixedPipeline:
        return analytic_fixed(env);
      case PipelineMode::kBaselineDataflow:
        return simulate_phase(env, /*whole_node_handoff=*/true);
      case PipelineMode::kFlowGnn:
        return simulate_phase(env, /*whole_node_handoff=*/false);
    }
    throw std::logic_error("Engine: unknown pipeline mode");
}

std::vector<StageSchedule>
build_stage_schedule(const Model &model, const EngineConfig &cfg)
{
    const std::size_t n_stages = model.num_stages();
    std::vector<StageSchedule> out(n_stages);
    bool prev_was_gat = false;
    bool have_prev_agg = false;
    AggregatorKind prev_agg_kind = AggregatorKind::kSum;
    std::size_t prev_agg_out_dim = 0;

    for (std::size_t si = 0; si < n_stages; ++si) {
        const Layer &stage = model.stage(si);
        StageSchedule &s = out[si];
        s.is_gat = (stage.dataflow() == DataflowKind::kMpToNt);
        s.stream_elems = static_cast<std::uint32_t>(stage.out_dim());

        if (prev_was_gat)
            s.prologue_cycles = ceil_div_u64(
                model.stage(si - 1).out_dim(), cfg.p_apply);
        if (have_prev_agg && prev_agg_kind != AggregatorKind::kSum)
            s.finalize_cycles =
                ceil_div_u64(prev_agg_out_dim, cfg.p_apply);
        for (std::size_t d : stage.nt_pass_dims())
            s.nt_pass_cycles += ceil_div_u64(d, cfg.p_apply);
        s.acc_cycles =
            s.prologue_cycles + s.finalize_cycles + s.nt_pass_cycles;

        // The scatter fused into this phase: either the next NT-to-MP
        // conv's message pass, or this GAT stage's own gather rounds.
        if (s.is_gat) {
            s.has_scatter = true;
            s.expansion = 1; // score / weighted sum: 1 cycle/edge/granule
        } else if (si + 1 < n_stages) {
            const Layer &next = model.stage(si + 1);
            if (next.msg_dim() > 0 &&
                next.dataflow() == DataflowKind::kNtToMp) {
                s.has_scatter = true;
                s.expansion = static_cast<std::uint32_t>(
                    ceil_div_u64(next.msg_dim(), stage.out_dim()));
            }
        }

        if (s.is_gat) {
            prev_was_gat = true;
            have_prev_agg = false;
        } else if (s.has_scatter) {
            const Layer &next = model.stage(si + 1);
            Aggregator agg = next.aggregator();
            prev_agg_kind = agg.kind();
            prev_agg_out_dim = agg.out_dim();
            have_prev_agg = true;
            prev_was_gat = false;
        } else {
            have_prev_agg = false;
            prev_was_gat = false;
        }
    }
    return out;
}

namespace {

/**
 * Adds one phase's recorded statistics into a run's: sums for unit,
 * edge-work, stall and push counters, max for the queue peak, and the
 * phase's trace (recorded from cycle 0) shifted to `base`.
 */
void
add_phase_stats(RunStats &stats, const RunStats &phase, std::uint64_t base)
{
    for (std::size_t u = 0; u < phase.nt_units.size(); ++u) {
        stats.nt_units[u].busy += phase.nt_units[u].busy;
        stats.nt_units[u].idle += phase.nt_units[u].idle;
    }
    for (std::size_t m = 0; m < phase.mp_units.size(); ++m) {
        stats.mp_units[m].busy += phase.mp_units[m].busy;
        stats.mp_units[m].idle += phase.mp_units[m].idle;
        stats.mp_edge_work[m] += phase.mp_edge_work[m];
    }
    stats.adapter_stall_cycles += phase.adapter_stall_cycles;
    stats.queue_total_pushes += phase.queue_total_pushes;
    stats.queue_peak_occupancy =
        std::max(stats.queue_peak_occupancy, phase.queue_peak_occupancy);
    for (TraceEvent e : phase.trace) {
        e.start += base;
        e.end += base;
        stats.trace.push_back(e);
    }
}

/**
 * Prices every stage of `schedule` on one die: one phase per stage,
 * two for GAT. Appends each stage's cycles to stats.phase_cycles and
 * adds them to stats.total_cycles; trace events are offset by the
 * cycles of the stages before them.
 */
void
price_stages(const std::vector<StageSchedule> &schedule,
             const PricedGraph &die,
             const std::vector<std::vector<BankWork>> &banks,
             const EngineConfig &cfg, const RunOptions &opts,
             RunStats &stats)
{
    // Every phase priced so far in this run. Banks and the owner mask
    // are fixed for the run, so a PhaseWork equal to a recorded one
    // has the same cycles and statistics: add them again instead.
    struct Priced {
        PhaseWork work;
        std::uint64_t cycles;
        RunStats stats; ///< the phase's own counters, trace from cycle 0
    };
    std::vector<Priced> seen;
    auto price = [&](const PhaseWork &w, std::uint64_t base) {
        auto hit = std::find_if(seen.begin(), seen.end(),
                                [&](const Priced &p) { return p.work == w; });
        if (hit == seen.end()) {
            RunStats phase;
            phase.nt_units.assign(cfg.p_node, {});
            phase.mp_units.assign(cfg.p_edge, {});
            phase.mp_edge_work.assign(cfg.p_edge, 0);
            const std::uint64_t cycles =
                run_phase({w, cfg, opts, phase, 0});
            seen.push_back({w, cycles, std::move(phase)});
            hit = seen.end() - 1;
        }
        add_phase_stats(stats, hit->stats, base);
        return hit->cycles;
    };
    std::uint64_t phase_base = 0;
    for (const StageSchedule &sched : schedule) {
        PhaseWork w;
        w.stream_elems = sched.stream_elems;
        w.has_scatter = sched.has_scatter;
        w.expansion = sched.expansion;
        w.acc_owned = sched.acc_cycles;
        if (sched.has_scatter) {
            // Scatter phase: ghosts re-stream their received embedding
            // into the scatter (GAT ghosts pay the local projection).
            w.n_nodes = die.graph.num_nodes();
            w.banks = &banks;
            w.is_owned = die.is_owned;
            w.acc_ghost = sched.is_gat ? sched.nt_pass_cycles : 0;
        } else {
            // Node-local stage: ghosts take no part at all.
            w.n_nodes = die.n_owned;
            w.acc_ghost = w.acc_owned;
        }
        std::uint64_t cycles = price(w, phase_base);
        if (sched.is_gat) {
            // GAT gathers need a second round: re-stream the
            // projections from the node buffer (no recomputation) for
            // the weighted sum.
            w.acc_owned = w.acc_ghost = 0;
            cycles += price(w, phase_base + cycles);
        }
        phase_base += cycles;
        stats.phase_cycles.push_back(cycles);
        stats.total_cycles += cycles;
    }
}

/**
 * Closes a run: the final GAT combine over the `n_owned` nodes when
 * the last stage is attention, then the pooled MLP head. Sets
 * stats.head_cycles and adds both, plus stats.load_cycles, to
 * stats.total_cycles.
 */
void
price_run_tail(const Model &model, const std::vector<StageSchedule> &schedule,
               NodeId n_owned, const EngineConfig &cfg, RunStats &stats)
{
    // Epilogue: final GAT combine if the last stage was attention.
    if (!schedule.empty() && schedule.back().is_gat) {
        const std::size_t last = model.num_stages() - 1;
        const std::uint64_t epi =
            ceil_div_u64(n_owned, cfg.p_node) *
            ceil_div_u64(model.stage(last).out_dim(), cfg.p_apply);
        stats.phase_cycles.push_back(epi);
        stats.total_cycles += epi;
    }

    // Global pooling (accumulated while the final embeddings stream
    // out — free) + the MLP head.
    std::uint64_t head_cycles = 0;
    for (std::size_t l = 0; l < model.head().num_layers(); ++l)
        head_cycles +=
            ceil_div_u64(model.head().layer(l).in_dim(), cfg.p_apply);
    stats.head_cycles = head_cycles;
    stats.total_cycles += head_cycles + stats.load_cycles;
}

} // namespace

RunStats
price_run(const Model &model, const EngineConfig &cfg, const RunOptions &opts,
          const PricedGraph &die, unsigned threads, PricingScratch &scratch)
{
    const GraphRef &graph = die.graph;
    const NodeId n_nodes = graph.num_nodes();
    RunStats stats;
    stats.clock_mhz = cfg.clock_mhz;
    stats.nt_units.assign(cfg.p_node, {});
    stats.mp_units.assign(cfg.p_edge, {});
    stats.mp_edge_work.assign(cfg.p_edge, 0);

    // Input DMA: owned nodes, features, and the raw COO edge list
    // stream in at 64 words/cycle (a conservative fraction of the U50's
    // 460 GB/s HBM2 bandwidth, ~380 words/cycle at 300 MHz); not
    // overlapped with compute, as documented in docs/DESIGN.md. Ghost
    // slots cost one id word each (their payload arrives over the
    // link, priced separately).
    stats.load_cycles = ceil_div_u64(
        std::uint64_t(die.n_owned) * (die.node_dim + 1) +
            std::uint64_t(graph.num_edges()) * (die.edge_dim + 2) +
            (n_nodes - die.n_owned),
        64);

    // Destination-node -> MP-bank map. Modulo is the on-the-fly
    // default; greedy balancing is the pre-processing ablation.
    std::vector<std::uint32_t> &bank_of = scratch.bank_of;
    if (cfg.bank_policy == BankPolicy::kGreedyBalanced) {
        bank_of = balanced_bank_assignment(graph, cfg.p_edge, threads);
    } else {
        bank_of.resize(n_nodes);
        for (NodeId v = 0; v < n_nodes; ++v)
            bank_of[v] = v % cfg.p_edge;
    }
    split_banks(graph, bank_of, cfg.p_edge, scratch.banks);

    const std::vector<StageSchedule> schedule =
        build_stage_schedule(model, cfg);
    price_stages(schedule, die, scratch.banks, cfg, opts, stats);
    price_run_tail(model, schedule, die.n_owned, cfg, stats);
    return stats;
}

} // namespace flowgnn
