#include "ghost/ghost_plan.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "core/parallel.h"

namespace flowgnn {

namespace {

std::uint64_t
ceil_div(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace

GhostPlan
make_ghost_plan(const Model &model, const SampleRef &prepared,
                const ShardConfig &config, unsigned threads)
{
    config.validate();
    const NodeId n_nodes = prepared.num_nodes();
    const std::uint32_t P = config.num_shards;
    const bool has_dgn = prepared.dgn_field != nullptr;

    GhostPlan plan;

    // These jobs run whole on one die (the virtual node makes every
    // vertex a boundary vertex, so ghost exchange would ship the
    // entire graph every layer).
    if (P == 1 || model.uses_virtual_node() || n_nodes == 0) {
        GhostShard shard;
        shard.info.owned_nodes = n_nodes;
        shard.info.subgraph_edges = prepared.num_edges();
        // Whole-graph resident footprint, same record shapes as the
        // sharded path so P=1 rows are comparable in benches.
        std::size_t whole_dim = prepared.node_dim;
        for (std::size_t i = 0; i < model.num_stages(); ++i)
            whole_dim = std::max(whole_dim, model.stage(i).out_dim());
        shard.info.resident_words =
            std::uint64_t(n_nodes) *
                (prepared.node_dim + 3 + has_dgn + 2 * whole_dim) +
            std::uint64_t(prepared.num_edges()) *
                (prepared.edge_dim + 2);
        plan.shards.push_back(std::move(shard));
        return plan;
    }

    plan.sharded = true;
    plan.assignment =
        shard_plan_assignment(prepared.graph, config, threads);
    const std::vector<std::uint32_t> &owner = plan.assignment;

    const std::size_t node_dim = prepared.node_dim;
    const std::size_t edge_dim = prepared.edge_dim;
    const std::size_t n_edges = prepared.num_edges();
    // Ghost bootstrap metadata: id + two true degrees (+ DGN scalar).
    const std::uint64_t meta_words = 3 + has_dgn;

    // ---- Which stages exchange, and how many words per ghost ----
    const std::size_t n_stages = model.num_stages();
    plan.exchange_at_stage.assign(n_stages, 0);
    plan.exchange_dim.assign(n_stages, 0);
    for (std::size_t si = 0; si < n_stages; ++si) {
        const Layer &stage = model.stage(si);
        const bool is_gat = (stage.dataflow() == DataflowKind::kMpToNt);
        bool has_scatter = is_gat;
        if (!is_gat && si + 1 < n_stages) {
            const Layer &next = model.stage(si + 1);
            has_scatter = next.msg_dim() > 0 &&
                          next.dataflow() == DataflowKind::kNtToMp;
        }
        if (has_scatter) {
            plan.exchange_at_stage[si] = 1;
            // Conv scatter ships the stage's post-transform output
            // (the ghost re-streams it); a GAT stage ships its input
            // and the ghost projects locally (see ghost_plan.h).
            plan.exchange_dim[si] = static_cast<std::uint32_t>(
                is_gat ? stage.in_dim() : stage.out_dim());
        }
    }
    std::uint32_t max_exchange_dim = 0;
    for (std::uint32_t d : plan.exchange_dim)
        max_exchange_dim = std::max(max_exchange_dim, d);

    // Widest embedding any stage materializes (resident sizing).
    std::size_t max_dim = node_dim;
    for (std::size_t i = 0; i < n_stages; ++i)
        max_dim = std::max(max_dim, model.stage(i).out_dim());

    // Dies owning nothing are dropped: shards.size() is the effective
    // P, and slot_of maps a die to its shard slot.
    std::vector<std::uint32_t> owned_count(P, 0);
    for (NodeId v = 0; v < n_nodes; ++v)
        ++owned_count[owner[v]];
    std::vector<std::uint32_t> slot_of(P, 0xFFFFFFFFu);
    std::uint32_t n_shards = 0;
    for (std::uint32_t d = 0; d < P; ++d)
        if (owned_count[d] != 0)
            slot_of[d] = n_shards++;

    // ---- One edge scan: endpoint range, ghost membership, per-die
    // edge counts ----
    // ghost_flag[v * P + d] = vertex v is in die d's ghost set. Every
    // edge stores (owner[src] != owner[dst]) at [src * P +
    // owner[dst]]; that value depends on the slot alone (the slot of
    // src's own die only ever receives 0), so concurrent workers
    // store through relaxed atomic_refs and the final bitmap is the
    // serial one whatever the order. The same scan counts each die's
    // local edges (every edge lands on its destination's owner) and
    // the fetched ones among them, per thread range, for the fill's
    // counting sort; the cut is the fetched total.
    std::vector<std::uint8_t> ghost_flag(std::size_t(n_nodes) * P, 0);
    const unsigned n_ranges = parallel_range_count(n_edges, threads);
    std::vector<std::vector<std::size_t>> range_count(n_ranges);
    std::vector<std::vector<std::size_t>> range_fetched(n_ranges);
    parallel_ranges(
        n_edges, threads,
        [&](std::size_t begin, std::size_t end, unsigned tid) {
            std::vector<std::size_t> count(n_shards, 0);
            std::vector<std::size_t> fetched(n_shards, 0);
            for (std::size_t i = begin; i < end; ++i) {
                const NodeId src = prepared.graph.src(i);
                const NodeId dst = prepared.graph.dst(i);
                if (src >= n_nodes || dst >= n_nodes)
                    throw std::invalid_argument(
                        "make_ghost_plan: edge endpoint out of range");
                const std::uint32_t os = owner[src];
                const std::uint32_t od = owner[dst];
                const std::uint32_t t = slot_of[od];
                std::atomic_ref<std::uint8_t>(
                    ghost_flag[std::size_t(src) * P + od])
                    .store(os != od, std::memory_order_relaxed);
                ++count[t];
                fetched[t] += os != od;
            }
            range_count[tid] = std::move(count);
            range_fetched[tid] = std::move(fetched);
        });

    // multiplicity[v] = how many foreign dies hold v as a ghost — the
    // per-layer send fan-out of v's owner.
    std::vector<std::uint64_t> send_mult(P, 0);
    for (NodeId v = 0; v < n_nodes; ++v) {
        std::uint32_t mult = 0;
        for (std::uint32_t d = 0; d < P; ++d)
            mult += ghost_flag[std::size_t(v) * P + d];
        send_mult[owner[v]] += mult;
    }

    // ---- Build the per-die shards. Dies are independent, so the
    // locals scans run one die per worker; the serial collection
    // below keeps shard order deterministic. ----
    std::vector<GhostShard> built(P);
    parallel_ranges(
        P, threads,
        [&](std::size_t begin, std::size_t end, unsigned) {
            for (std::size_t d = begin; d < end; ++d) {
                if (owned_count[d] == 0)
                    continue; // n < P degenerate die: owns nothing
                GhostShard &shard = built[d];
                shard.info.shard = static_cast<std::uint32_t>(d);
                for (NodeId v = 0; v < n_nodes; ++v) {
                    const bool own = owner[v] == d;
                    if (own || ghost_flag[std::size_t(v) * P + d]) {
                        shard.locals.push_back(v);
                        shard.is_owned.push_back(own);
                    }
                }
                shard.info.owned_nodes = owned_count[d];
                shard.info.ghost_nodes =
                    shard.locals.size() - shard.info.owned_nodes;
            }
        },
        /*serial_cutoff=*/2);

    std::size_t locals_total = 0;
    for (std::uint32_t d = 0; d < P; ++d) {
        if (owned_count[d] == 0)
            continue;
        locals_total += built[d].locals.size();
        plan.shards.push_back(std::move(built[d]));
    }

    // Local-id maps for every die at once, so the fill below is a
    // single pass whatever P is.
    std::vector<std::vector<std::uint32_t>> local_of(n_shards);
    parallel_ranges(
        n_shards, threads,
        [&](std::size_t begin, std::size_t end, unsigned) {
            for (std::size_t t = begin; t < end; ++t) {
                local_of[t].assign(n_nodes, 0);
                const GhostShard &shard = plan.shards[t];
                for (std::uint32_t i = 0; i < shard.locals.size(); ++i)
                    local_of[t][shard.locals[i]] = i;
            }
        },
        /*serial_cutoff=*/2);

    // ---- Local edges: every edge lands on its destination's owner,
    // in global edge order (preserves per-row CSR order, hence the
    // engine's arrival order, on every die). A counting sort keyed by
    // the destination's die over the scan's per-range counts: a
    // serial prefix scan in (die, thread) order, and a parallel
    // stable fill into the unzeroed columns — bit-identical to the
    // serial append. ----
    std::vector<std::vector<std::size_t>> cursor(
        n_ranges, std::vector<std::size_t>(n_shards, 0));
    std::size_t run = 0;
    for (std::size_t t = 0; t < n_shards; ++t) {
        GhostShard &shard = plan.shards[t];
        shard.edge_begin = run;
        std::size_t fetched = 0;
        for (unsigned tid = 0; tid < n_ranges; ++tid) {
            cursor[tid][t] = run;
            run += range_count[tid][t];
            fetched += range_fetched[tid][t];
        }
        shard.edge_count = run - shard.edge_begin;
        shard.info.fetched_edges = fetched;
        plan.cut_edges += fetched;
    }
    plan.local_src.resize(run);
    plan.local_dst.resize(run);
    parallel_ranges(
        n_edges, threads,
        [&](std::size_t begin, std::size_t end, unsigned tid) {
            std::vector<std::size_t> cur = cursor[tid];
            for (std::size_t i = begin; i < end; ++i) {
                const NodeId src = prepared.graph.src(i);
                const NodeId dst = prepared.graph.dst(i);
                const std::uint32_t t = slot_of[owner[dst]];
                const std::size_t slot = cur[t]++;
                plan.local_src[slot] = local_of[t][src];
                plan.local_dst[slot] = local_of[t][dst];
            }
        });

    // ---- Word counts, per-exchange link cycles, resident footprint --
    const std::uint64_t node_rec = node_dim + 3 + has_dgn;
    const std::uint64_t edge_rec = edge_dim + 2;
    for (GhostShard &shard : plan.shards) {
        shard.info.subgraph_edges = shard.edge_count;
        const std::uint64_t ghosts = shard.info.ghost_nodes;
        const std::uint64_t fan_out = send_mult[shard.info.shard];
        shard.layer_comm_cycles.assign(n_stages, 0);
        bool first_exchange = true;
        for (std::size_t si = 0; si < n_stages; ++si) {
            if (!plan.exchange_at_stage[si])
                continue;
            std::uint64_t send = fan_out * plan.exchange_dim[si];
            std::uint64_t recv = ghosts * plan.exchange_dim[si];
            if (first_exchange) {
                // Bootstrap metadata rides the first exchange.
                send += fan_out * meta_words;
                recv += ghosts * meta_words;
                first_exchange = false;
            }
            shard.info.exchange_send_words += send;
            shard.info.exchange_recv_words += recv;
            if (send == 0 && recv == 0)
                continue; // no boundary traffic on this die
            // Full-duplex link: the exchange lasts as long as the
            // longer of the two streams, plus the fixed latency.
            shard.layer_comm_cycles[si] =
                ceil_div(std::max(send, recv),
                         config.link.words_per_cycle) +
                config.link.latency_cycles;
            shard.info.comm_cycles += shard.layer_comm_cycles[si];
        }
        // Resident: owned vertices keep full node records plus the
        // double-buffered embedding store; ghosts keep only their
        // metadata and the currently-received embedding; plus every
        // local edge record.
        shard.info.resident_words =
            std::uint64_t(shard.info.owned_nodes) *
                (node_rec + 2 * max_dim) +
            ghosts * (meta_words + max_exchange_dim) +
            std::uint64_t(shard.info.subgraph_edges) * edge_rec;
    }

    plan.replication_factor = static_cast<double>(locals_total) /
                              static_cast<double>(n_nodes);
    return plan;
}

} // namespace flowgnn
