#include "core/phase_model.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "graph/partition.h"

namespace flowgnn {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/** One entry in an adapter-to-MP queue. */
struct QueueEntry {
    NodeId node = 0;
    std::uint32_t granules = 1; ///< scatter granules carried
    std::uint32_t edges = 0;    ///< the node's edges into the queue's bank
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
};

/**
 * NT unit u and adapter port u, priced as one producer: only NT unit u
 * feeds port u, and only port u pushes into the queues (u, *). The NT
 * unit is a double-buffered accumulate/output state machine owning
 * nodes u, u + Pnode, u + 2 Pnode, ... in that order; the port
 * re-batches its Papply beats into Pscatter granules and multicasts
 * each to every destination bank of the node. The state is exact as of
 * the end of cycle `synced`.
 */
struct Producer {
    std::uint64_t next = 0; ///< next node to start accumulating
    bool acc_active = false;
    NodeId acc_node = 0;
    std::uint64_t acc_rem = 0;
    std::uint64_t acc_start = 0; ///< cycle the accumulate began (trace)
    bool pong_full = false; ///< node finished acc, waiting to stream
    NodeId pong_node = 0;
    bool out_active = false;
    bool out_to_port = false; ///< the output node has scatter targets
    NodeId out_node = 0;
    std::uint32_t out_beats = 0; ///< Papply beats streamed so far
    std::uint64_t out_start = 0; ///< cycle the output began (trace)
    bool port_active = false;
    NodeId port_node = 0;
    std::uint32_t received = 0; ///< elements the port received
    std::uint32_t emitted = 0;  ///< granules the port multicast
    const std::vector<BankWork> *targets = nullptr;

    std::uint64_t synced = 0;
    std::uint64_t ready_at = kNever; ///< first cycle the port can emit
    /** Target queues now full; while nonzero the port has no visit of
     * its own, and the pop that frees the last one schedules it. */
    std::uint32_t full_targets = 0;
    std::uint64_t busy = 0; ///< NT busy cycles
};

/** MP unit: consumes queue entries, one edge-granule per cycle. */
struct MpUnit {
    std::uint32_t rr_cursor = 0; ///< round-robin over source queues
    std::uint64_t free_at = 0;   ///< first cycle it may pop again
    std::uint64_t queued = 0;    ///< entries waiting in queues (*, m)
    std::uint64_t busy = 0;
    std::uint64_t edge_work = 0;
};

/**
 * Event-driven simulation of one phase for the queue-based modes
 * (baseline dataflow and FlowGNN), with exactly the semantics of a
 * loop that steps every unit through every cycle: in each cycle the
 * MP units pop first, then each port multicasts, each NT unit streams
 * and promotes, and each NT unit accumulates. whole_node_handoff
 * selects the baseline behaviour where MP only starts a node after its
 * entire embedding arrived (Fig. 4(c) vs (d)).
 *
 * A unit is visited only at cycles where its own state changes; the
 * cycles in between add their beats, countdowns, stalls and busy time
 * in one step (docs/DESIGN.md, "Timing model: phase simulator").
 */
class PhasePricer
{
  public:
    PhasePricer(const PhaseEnv &env, bool whole_node_handoff)
        : w_(env.work), stats_(env.stats), base_cycle_(env.base_cycle),
          tracing_(env.opts.capture_trace), whole_node_(whole_node_handoff),
          pn_(env.cfg.p_node), pe_(env.cfg.p_edge), pa_(env.cfg.p_apply),
          ps_(env.cfg.p_scatter), cap_(2 * std::max(pa_, ps_)),
          sg_total_(static_cast<std::uint32_t>(
              ceil_div_u64(w_.stream_elems, ps_))),
          beats_total_(static_cast<std::uint32_t>(
              ceil_div_u64(w_.stream_elems, pa_))),
          beats_(sg_total_), queues_(queue_pushes(), env.cfg.queue_depth),
          prod_(pn_), mp_(pe_), is_target_(std::size_t(pn_) * pe_, 0),
          when_(std::size_t(pe_) + pn_, kNever)
    {
        for (std::uint32_t u = 0; u < pn_; ++u)
            prod_[u].next = u;
        for (std::uint32_t e = 0; e < sg_total_; ++e) {
            const std::uint64_t goal = std::min<std::uint64_t>(
                std::uint64_t(e + 1) * ps_, w_.stream_elems);
            beats_[e] =
                whole_node_
                    ? GranuleBeats{beats_total_, beats_total_}
                    : GranuleBeats{
                          static_cast<std::uint32_t>(ceil_div_u64(goal, pa_)),
                          static_cast<std::uint32_t>(
                              (cap_ + ps_ + std::uint64_t(e) * ps_) / pa_)};
        }
    }

    /** Prices the phase into env.stats and returns its cycle count. */
    std::uint64_t
    run()
    {
        const std::size_t trace_begin = stats_.trace.size();
        for (std::uint32_t u = 0; u < pn_ && u < w_.n_nodes; ++u)
            when_[pe_ + u] = 1;
        for (;;) {
            // The earliest visit; on a tie the lowest slot.
            std::uint32_t slot = 0;
            for (std::uint32_t i = 1; i < when_.size(); ++i)
                if (when_[i] < when_[slot])
                    slot = i;
            const std::uint64_t cycle = when_[slot];
            if (cycle == kNever)
                break;
            when_[slot] = kNever;
            if (slot < pe_)
                pop(slot, cycle);
            else
                visit(slot - pe_, cycle);
        }
        for (const Producer &p : prod_)
            if (p.next < w_.n_nodes || p.acc_active || p.pong_full ||
                p.out_active || p.port_active)
                throw std::runtime_error("Engine: phase livelock detected");

        for (std::uint32_t u = 0; u < pn_; ++u) {
            stats_.nt_units[u].busy += prod_[u].busy;
            stats_.nt_units[u].idle += end_ - prod_[u].busy;
        }
        for (std::uint32_t m = 0; m < pe_; ++m) {
            stats_.mp_units[m].busy += mp_[m].busy;
            stats_.mp_units[m].idle += end_ - mp_[m].busy;
            stats_.mp_edge_work[m] += mp_[m].edge_work;
        }
        stats_.queue_total_pushes += pushes_;
        stats_.queue_peak_occupancy =
            std::max(stats_.queue_peak_occupancy, queues_.peak_occupancy());
        // The order a cycle-stepped loop emits in: by end cycle, then MP
        // before NT output before NT accumulate, then by unit.
        auto rank = [](const TraceEvent &e) {
            return std::tuple(e.end,
                              e.kind == TraceKind::kMpWork     ? 0
                              : e.kind == TraceKind::kNtOutput ? 1
                                                               : 2,
                              e.unit);
        };
        if (tracing_)
            std::sort(stats_.trace.begin() + std::ptrdiff_t(trace_begin),
                      stats_.trace.end(),
                      [&](const TraceEvent &a, const TraceEvent &b) {
                          return rank(a) < rank(b);
                      });
        return end_;
    }

  private:
    /** Entries each queue receives over the phase (sizes its ring). */
    std::vector<std::uint64_t>
    queue_pushes() const
    {
        std::vector<std::uint64_t> pushes(std::size_t(pn_) * pe_, 0);
        const std::uint32_t per_target =
            whole_node_ ? (sg_total_ > 0 ? 1 : 0) : sg_total_;
        if (w_.has_scatter)
            for (NodeId n = 0; n < w_.n_nodes; ++n)
                for (const BankWork &bw : (*w_.banks)[n])
                    pushes[std::size_t(n % pn_) * pe_ + bw.bank] +=
                        per_target;
        return pushes;
    }

    std::size_t queue_id(std::uint32_t u, std::uint32_t m) const
    {
        return std::size_t(u) * pe_ + m;
    }

    void
    emit(TraceKind kind, std::uint32_t unit, NodeId node,
         std::uint64_t start, std::uint64_t end)
    {
        if (tracing_ && end > start)
            stats_.trace.push_back(
                {kind, unit, node, base_cycle_ + start, base_cycle_ + end});
    }

    /** Beats the output of `p` can still deliver with no emission. */
    std::uint64_t
    beats_allowed(const Producer &p) const
    {
        return p.out_to_port ? beats_[p.emitted].limit - p.out_beats
                             : kNever;
    }

    /** Beats the output of `p` still has to deliver. */
    std::uint64_t
    beats_left(const Producer &p) const
    {
        return beats_total_ - p.out_beats;
    }

    /** MP unit m pops at cycle c and works the entry to its end. */
    void
    pop(std::uint32_t m, std::uint64_t c)
    {
        MpUnit &unit = mp_[m];
        std::uint32_t u = unit.rr_cursor;
        while (queues_.empty(queue_id(u, m)))
            u = u + 1 == pn_ ? 0 : u + 1;
        const std::size_t q = queue_id(u, m);
        const bool was_full = queues_.full(q);
        const QueueEntry e = queues_.pop(q);
        --unit.queued;
        unit.rr_cursor = u + 1 == pn_ ? 0 : u + 1;
        const std::uint64_t work = std::uint64_t(e.edges) * e.granules;
        const std::uint64_t r = std::max<std::uint64_t>(1, work * w_.expansion);
        unit.busy += r;
        unit.edge_work += work;
        emit(TraceKind::kMpWork, m, e.node, c - 1, c + r - 1);
        end_ = std::max(end_, c + r - 1);
        unit.free_at = c + r;
        if (unit.queued > 0)
            when_[m] = c + r;
        // This pop may free the last full target of a stalled port,
        // which then multicasts in this very cycle.
        Producer &p = prod_[u];
        if (was_full && is_target_[q] && --p.full_targets == 0)
            when_[pe_ + u] = std::min(when_[pe_ + u], std::max(p.ready_at, c));
    }

    /** Producer u's cycle c: the port, then output, then accumulate. */
    void
    visit(std::uint32_t u, std::uint64_t c)
    {
        Producer &p = prod_[u];
        // Cycles synced+1 .. c-1 changed nothing but output beats, the
        // accumulate countdown and (from ready_at on) port stalls. An
        // output whose last beat falls among them ends there: with the
        // pong slot empty, nothing acts on its end before this visit.
        if (const std::uint64_t quiet = c - 1 - p.synced) {
            if (p.port_active && p.ready_at < c)
                stats_.adapter_stall_cycles +=
                    c - std::max(p.ready_at, p.synced + 1);
            if (p.acc_active) {
                p.acc_rem -= quiet;
                p.busy += quiet;
            }
            if (p.out_active) {
                const std::uint64_t left = beats_left(p);
                const auto beats = static_cast<std::uint32_t>(
                    std::min({quiet, beats_allowed(p), left}));
                p.out_beats += beats;
                if (p.out_to_port)
                    p.received =
                        std::min(p.received + beats * pa_, w_.stream_elems);
                if (!p.acc_active)
                    p.busy += beats == left ? beats - 1 : quiet;
                if (beats == left) {
                    emit(TraceKind::kNtOutput, u, p.out_node, p.out_start,
                         p.synced + beats);
                    p.out_active = false;
                }
            }
        }
        for (;; ++c) {
            p.synced = c;
            end_ = std::max(end_, c);
            // 1. The port re-batches and multicasts, all targets or none.
            if (p.port_active) {
                const std::uint32_t pending = p.received - p.emitted * ps_;
                const bool complete = p.received >= w_.stream_elems;
                std::uint32_t granules = 0;
                if (whole_node_)
                    granules = complete ? sg_total_ : 0;
                else if (pending >= ps_ || (complete && pending > 0))
                    granules = 1;
                if (granules > 0 && p.full_targets > 0) {
                    stats_.adapter_stall_cycles++;
                } else if (granules > 0) {
                    p.emitted += granules;
                    p.port_active = p.emitted < sg_total_;
                    for (const BankWork &bw : *p.targets) {
                        const std::size_t q = queue_id(u, bw.bank);
                        queues_.push(q, {p.port_node, granules, bw.edges});
                        ++pushes_;
                        p.full_targets += queues_.full(q);
                        is_target_[q] = p.port_active;
                        MpUnit &unit = mp_[bw.bank];
                        if (unit.queued++ == 0)
                            when_[bw.bank] = std::max(c + 1, unit.free_at);
                    }
                    if (!p.port_active)
                        p.full_targets = 0;
                }
            }

            // 2. The NT output streams into the port (or straight to the
            //    node buffer when the node has no scatter targets). The
            //    port's register is a bounded skid buffer; in whole-node
            //    handoff it models the full ping-pong embedding buffer, so
            //    any not-yet-complete embedding absorbs the next beat.
            if (p.out_active) {
                bool delivered = true;
                if (p.out_to_port) {
                    delivered = whole_node_
                        ? p.received < w_.stream_elems
                        : p.received - p.emitted * ps_ + pa_ <= cap_ + ps_;
                    if (delivered)
                        p.received =
                            std::min(p.received + pa_, w_.stream_elems);
                }
                if (delivered && ++p.out_beats == beats_total_) {
                    emit(TraceKind::kNtOutput, u, p.out_node, p.out_start, c);
                    p.out_active = false;
                }
            }
            // Promote a finished node from the pong slot to output, provided
            // the port is free for a new node.
            if (!p.out_active && p.pong_full) {
                const bool to_port =
                    w_.has_scatter && !(*w_.banks)[p.pong_node].empty();
                if (w_.stream_elems == 0) {
                    p.pong_full = false; // nothing to stream
                } else if (!to_port || !p.port_active) {
                    p.out_active = true;
                    p.out_to_port = to_port;
                    p.out_node = p.pong_node;
                    p.out_beats = 0;
                    p.out_start = c;
                    p.pong_full = false;
                    if (to_port) {
                        p.port_active = true;
                        p.port_node = p.out_node;
                        p.received = 0;
                        p.emitted = 0;
                        p.targets = &(*w_.banks)[p.out_node];
                        for (const BankWork &bw : *p.targets) {
                            const std::size_t q = queue_id(u, bw.bank);
                            is_target_[q] = 1;
                            p.full_targets += queues_.full(q);
                        }
                    }
                }
            }

            // 3. NT accumulate: complete into the pong slot, and start the
            //    next node when double buffering allows. A zero-cost node
            //    (a GAT re-stream, or a ghost whose embedding arrived over
            //    the inter-die link) completes at once.
            const bool was_busy = p.acc_active || p.out_active;
            if (p.acc_active && --p.acc_rem == 0) {
                emit(TraceKind::kNtAccumulate, u, p.acc_node, p.acc_start, c);
                p.acc_active = false;
                p.pong_full = true;
                p.pong_node = p.acc_node;
            }
            if (!p.acc_active && !p.pong_full && p.next < w_.n_nodes) {
                p.acc_node = static_cast<NodeId>(p.next);
                p.next += pn_;
                if (const std::uint64_t cost = w_.acc_of(p.acc_node)) {
                    p.acc_active = true;
                    p.acc_rem = cost;
                    p.acc_start = c;
                } else {
                    p.pong_full = true;
                    p.pong_node = p.acc_node;
                }
            }
            p.busy += was_busy;

            // The next cycle this producer's state changes: its accumulate
            // or output ends, a promotion, or its port's next multicast.
            std::uint64_t next = p.acc_active ? c + p.acc_rem : kNever;
            if (!p.out_active && p.pong_full &&
                (!p.port_active || !w_.has_scatter ||
                 (*w_.banks)[p.pong_node].empty()))
                next = c + 1;

            if (p.port_active) {
                // Until it can emit, the port takes a beat every cycle (its
                // skid buffer holds a granule plus a beat by construction);
                // a node no longer streaming has arrived whole.
                const std::uint32_t ready = beats_[p.emitted].ready;
                p.ready_at = c + 1;
                if (p.out_active && p.out_to_port && ready > p.out_beats)
                    p.ready_at += ready - p.out_beats;
                if (p.full_targets == 0)
                    next = std::min(next, p.ready_at);
            }
            // An output's end needs a visit of its own only to promote
            // the pong node, or when nothing else is pending.
            if (p.out_active && (p.pong_full || next == kNever) &&
                beats_left(p) <= beats_allowed(p))
                next = std::min(next, c + beats_left(p));
            // A cycle that neither multicasts nor reads a queue can run
            // now, ahead of that cycle's pops.
            if (next != c + 1 || p.port_active) {
                when_[pe_ + u] = next;
                return;
            }
        }
    }

    const PhaseWork &w_;
    RunStats &stats_;
    const std::uint64_t base_cycle_; ///< offset of trace events
    const bool tracing_;
    const bool whole_node_;
    const std::uint32_t pn_, pe_, pa_, ps_;
    const std::uint32_t cap_; ///< skid buffer capacity (elements)
    const std::uint32_t sg_total_; ///< granules per streamed node
    const std::uint32_t beats_total_; ///< Papply beats per streamed node
    /** Per granule e of a node: the output beats after which the port
     * can emit it, and the most beats the skid buffer takes before it
     * leaves (no limit in whole-node handoff). */
    struct GranuleBeats {
        std::uint32_t ready = 0, limit = 0;
    };
    std::vector<GranuleBeats> beats_;
    QueueRings queues_;
    std::vector<Producer> prod_;
    std::vector<MpUnit> mp_;
    /** Per queue (u, m): m is a destination bank of port u's node. */
    std::vector<std::uint8_t> is_target_;
    /** Next visit cycle per slot (kNever: none). MP unit m is slot m
     * and producer u slot Pedge + u, so a cycle's pops run before its
     * ports. */
    std::vector<std::uint64_t> when_;
    std::uint64_t end_ = 0; ///< last cycle any state changed
    std::uint64_t pushes_ = 0; ///< queue entries pushed
};

/** Per-node NT latency (accumulate + output stream) for the analytic
 * modes, where accumulate and output do not overlap across nodes. */
std::uint64_t
analytic_nt_cycles(const PhaseWork &w, const EngineConfig &cfg, NodeId n)
{
    return w.acc_of(n) + ceil_div_u64(w.stream_elems, cfg.p_apply);
}

/** MP cost of one node's `edges` edges into one bank. */
std::uint64_t
analytic_mp_cycles(const PhaseWork &w, const EngineConfig &cfg,
                   std::uint32_t edges)
{
    return std::uint64_t(edges) *
           ceil_div_u64(w.stream_elems, cfg.p_scatter) * w.expansion;
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
                std::uint64_t c = analytic_mp_cycles(w, cfg, bw.edges);
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
                c += analytic_mp_cycles(w, cfg, bw.edges);
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
        return PhasePricer(env, /*whole_node_handoff=*/true).run();
      case PipelineMode::kFlowGnn:
        return PhasePricer(env, /*whole_node_handoff=*/false).run();
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
