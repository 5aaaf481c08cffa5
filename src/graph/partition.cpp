#include "graph/partition.h"

#include <algorithm>
#include <stdexcept>

#include "core/parallel.h"
#include "graph/streaming_partition.h"

namespace flowgnn {

namespace {

/**
 * Owner of contiguous rank r in a balanced split of n ranks over P
 * shards: floor(r * P / n). Shard sizes differ by at most one, so no
 * shard is ever empty while another holds two or more — the ceil-chunk
 * split this replaces left trailing shards empty whenever
 * ceil(n/P) * (P-1) >= n (e.g. 9 nodes over 8 shards gave shards 0-3
 * two nodes each and shards 5-7 none). For n < P the map is strictly
 * increasing: exactly n shards own one node each.
 */
std::uint32_t
balanced_rank_owner(std::uint64_t rank, std::uint64_t n, std::uint32_t p)
{
    return static_cast<std::uint32_t>(rank * p / n);
}

/**
 * Undirected BFS renumbering over the symmetrized simple adjacency,
 * then a balanced split of the BFS ranks — the kBfsContiguous body.
 * Disconnected components restart the BFS from the
 * lowest unvisited id, so every node gets a rank.
 */
std::vector<std::uint32_t>
bfs_contiguous_assignment(const UndirectedCsr &adj,
                          std::uint32_t num_shards)
{
    const NodeId n = adj.num_nodes();
    std::vector<NodeId> rank(n, 0);
    std::vector<bool> visited(n, false);
    std::vector<NodeId> queue;
    queue.reserve(n);
    NodeId next_rank = 0;
    for (NodeId seed = 0; seed < n; ++seed) {
        if (visited[seed])
            continue;
        visited[seed] = true;
        queue.push_back(seed);
        for (std::size_t head = 0; head < queue.size(); ++head) {
            NodeId v = queue[head];
            rank[v] = next_rank++;
            for (std::size_t i = adj.row_begin(v); i < adj.row_end(v);
                 ++i) {
                if (!visited[adj.nbr[i]]) {
                    visited[adj.nbr[i]] = true;
                    queue.push_back(adj.nbr[i]);
                }
            }
        }
        queue.clear();
    }

    std::vector<std::uint32_t> assignment(n);
    for (NodeId v = 0; v < n; ++v)
        assignment[v] = balanced_rank_owner(rank[v], n, num_shards);
    return assignment;
}

} // namespace

std::vector<std::size_t>
bank_edge_counts(const CooGraph &graph, std::uint32_t p_edge)
{
    if (p_edge == 0)
        throw std::invalid_argument("bank_edge_counts: p_edge must be > 0");
    std::vector<std::size_t> counts(p_edge, 0);
    for (const auto &e : graph.edges)
        ++counts[dest_bank(e.dst, p_edge)];
    return counts;
}

double
workload_imbalance(const std::vector<std::size_t> &counts)
{
    if (counts.empty())
        throw std::invalid_argument("workload_imbalance: no banks");
    std::size_t total = 0;
    for (auto c : counts)
        total += c;
    if (total == 0)
        return 0.0;
    auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
    return static_cast<double>(*mx - *mn) / static_cast<double>(total);
}

double
workload_imbalance(const CooGraph &graph, std::uint32_t p_edge)
{
    return workload_imbalance(bank_edge_counts(graph, p_edge));
}

std::vector<std::uint32_t>
balanced_bank_assignment(const GraphRef &graph, std::uint32_t p_edge,
                         unsigned threads)
{
    if (p_edge == 0)
        throw std::invalid_argument(
            "balanced_bank_assignment: p_edge must be > 0");
    const NodeId num_nodes = graph.num_nodes();
    auto in_deg = graph.in_degrees(threads);
    std::vector<NodeId> order(num_nodes);
    for (NodeId n = 0; n < num_nodes; ++n)
        order[n] = n;
    std::stable_sort(order.begin(), order.end(),
                     [&](NodeId a, NodeId b) {
                         return in_deg[a] > in_deg[b];
                     });

    std::vector<std::uint32_t> assignment(num_nodes, 0);
    std::vector<std::size_t> load(p_edge, 0);
    for (NodeId n : order) {
        std::uint32_t lightest = 0;
        for (std::uint32_t b = 1; b < p_edge; ++b)
            if (load[b] < load[lightest])
                lightest = b;
        assignment[n] = lightest;
        load[lightest] += in_deg[n];
    }
    return assignment;
}

const char *
shard_strategy_name(ShardStrategy strategy)
{
    switch (strategy) {
      case ShardStrategy::kModulo: return "modulo";
      case ShardStrategy::kContiguous: return "contiguous";
      case ShardStrategy::kGreedyBalanced: return "greedy-balanced";
      case ShardStrategy::kBfsContiguous: return "bfs-contiguous";
      case ShardStrategy::kLdg: return "ldg";
      case ShardStrategy::kFennel: return "fennel";
      case ShardStrategy::kHdrf: return "hdrf";
    }
    return "unknown";
}

ShardStrategy
shard_strategy_from_name(const std::string &name)
{
    constexpr ShardStrategy all[] = {
        ShardStrategy::kModulo,        ShardStrategy::kContiguous,
        ShardStrategy::kGreedyBalanced, ShardStrategy::kBfsContiguous,
        ShardStrategy::kLdg,           ShardStrategy::kFennel,
        ShardStrategy::kHdrf,
    };
    std::string valid;
    for (ShardStrategy s : all) {
        if (name == shard_strategy_name(s))
            return s;
        valid += valid.empty() ? "" : ", ";
        valid += shard_strategy_name(s);
    }
    throw std::invalid_argument("unknown shard strategy '" + name +
                                "' (valid: " + valid + ")");
}

std::vector<std::uint32_t>
shard_assignment(const GraphRef &graph, std::uint32_t num_shards,
                 ShardStrategy strategy,
                 const std::vector<std::uint32_t> *prior,
                 const UndirectedCsr *adj, unsigned threads)
{
    if (num_shards == 0)
        throw std::invalid_argument(
            "shard_assignment: num_shards must be > 0");
    const NodeId num_nodes = graph.num_nodes();

    const bool streaming = strategy == ShardStrategy::kLdg ||
                           strategy == ShardStrategy::kFennel ||
                           strategy == ShardStrategy::kHdrf;
    if (streaming && prior != nullptr && prior->size() != num_nodes)
        throw std::invalid_argument(
            "stream_partition: prior assignment size mismatch");

    // The streaming strategies (the only prior-sensitive ones) and
    // kBfsContiguous consume the symmetrized simple adjacency; build
    // it lazily once so the cheap strategies never pay for it.
    UndirectedCsr built;
    auto adjacency = [&]() -> const UndirectedCsr & {
        if (adj != nullptr)
            return *adj;
        if (built.offsets.empty())
            built = build_undirected_csr(graph, threads);
        return built;
    };

    switch (strategy) {
      case ShardStrategy::kModulo: {
        std::vector<std::uint32_t> assignment(num_nodes);
        for (NodeId n = 0; n < num_nodes; ++n)
            assignment[n] = n % num_shards;
        return assignment;
      }
      case ShardStrategy::kContiguous: {
        // Balanced id ranges: sizes differ by at most one node.
        std::vector<std::uint32_t> assignment(num_nodes);
        for (NodeId n = 0; n < num_nodes; ++n)
            assignment[n] =
                balanced_rank_owner(n, num_nodes, num_shards);
        return assignment;
      }
      case ShardStrategy::kGreedyBalanced:
        return balanced_bank_assignment(graph, num_shards, threads);
      case ShardStrategy::kBfsContiguous:
        return num_nodes == 0
                   ? std::vector<std::uint32_t>()
                   : bfs_contiguous_assignment(adjacency(), num_shards);
      case ShardStrategy::kLdg:
        if (num_nodes == 0 || num_shards == 1)
            return std::vector<std::uint32_t>(num_nodes, 0);
        return ldg_partition(adjacency(), num_shards, {}, prior);
      case ShardStrategy::kFennel:
        if (num_nodes == 0 || num_shards == 1)
            return std::vector<std::uint32_t>(num_nodes, 0);
        return fennel_partition(adjacency(), num_shards, {}, prior);
      case ShardStrategy::kHdrf:
        if (num_nodes == 0 || num_shards == 1)
            return std::vector<std::uint32_t>(num_nodes, 0);
        return hdrf_partition(adjacency(), num_shards, {}, prior);
    }
    throw std::invalid_argument("shard_assignment: unknown strategy");
}

std::size_t
shard_cut_edges(const GraphRef &graph,
                const std::vector<std::uint32_t> &assignment,
                unsigned threads)
{
    if (assignment.size() != graph.num_nodes())
        throw std::invalid_argument(
            "shard_cut_edges: assignment size mismatch");
    const std::size_t e = graph.num_edges();
    const unsigned T = parallel_range_count(e, threads);
    std::vector<std::size_t> partial(T, 0);
    parallel_ranges(e, threads,
                    [&](std::size_t b, std::size_t end, unsigned tid) {
                        std::size_t cut = 0;
                        for (std::size_t i = b; i < end; ++i)
                            cut += assignment[graph.src(i)] !=
                                   assignment[graph.dst(i)];
                        partial[tid] = cut;
                    });
    std::size_t cut = 0;
    for (std::size_t p : partial)
        cut += p;
    return cut;
}

double
shard_cut_fraction(const CooGraph &graph,
                   const std::vector<std::uint32_t> &assignment)
{
    if (graph.num_edges() == 0)
        return 0.0;
    return static_cast<double>(shard_cut_edges(graph, assignment, 1)) /
           static_cast<double>(graph.num_edges());
}

std::vector<std::size_t>
bank_edge_counts(const CooGraph &graph,
                 const std::vector<std::uint32_t> &assignment,
                 std::uint32_t p_edge)
{
    if (p_edge == 0)
        throw std::invalid_argument("bank_edge_counts: p_edge must be > 0");
    if (assignment.size() != graph.num_nodes)
        throw std::invalid_argument(
            "bank_edge_counts: assignment size mismatch");
    std::vector<std::size_t> counts(p_edge, 0);
    for (const auto &e : graph.edges) {
        std::uint32_t b = assignment[e.dst];
        if (b >= p_edge)
            throw std::invalid_argument(
                "bank_edge_counts: bank id out of range");
        ++counts[b];
    }
    return counts;
}

} // namespace flowgnn
