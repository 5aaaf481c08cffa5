#include "shard/shard_plan.h"

#include <utility>

#include "graph/streaming_partition.h"

namespace flowgnn {

std::vector<std::uint32_t>
shard_plan_assignment(const GraphRef &graph, const ShardConfig &config,
                      unsigned threads)
{
    // The adjacency-driven strategies all consume the same symmetrized
    // simple adjacency; build it once here so restreaming passes reuse
    // it instead of rebuilding per pass. Skipped when shard_assignment
    // would early-return without ever touching it.
    const ShardStrategy s = config.strategy;
    const bool streaming = s == ShardStrategy::kLdg ||
                           s == ShardStrategy::kFennel ||
                           s == ShardStrategy::kHdrf;
    UndirectedCsr adj;
    const UndirectedCsr *adj_ptr = nullptr;
    // The streaming strategies balance w_v = 1 + in-degree(v): every
    // edge is priced on the die that owns its destination, so a die's
    // modeled time follows the in-edges it owns, not its node count.
    // The in-degrees come off the adjacency build's count pass.
    std::vector<std::uint32_t> weight;
    const std::vector<std::uint32_t> *weight_ptr = nullptr;
    if ((s == ShardStrategy::kBfsContiguous || streaming) &&
        graph.num_nodes() > 0 && config.num_shards > 1) {
        adj = build_undirected_csr(graph, threads,
                                   streaming ? &weight : nullptr);
        adj_ptr = &adj;
        if (streaming) {
            for (std::uint32_t &w : weight)
                ++w;
            weight_ptr = &weight;
        }
    }

    std::vector<std::uint32_t> assignment =
        shard_assignment(graph, config.num_shards, config.strategy,
                         nullptr, weight_ptr, adj_ptr, threads);
    // Restreaming refinement (Nishimura & Ugander): re-run the stream
    // with the previous pass as prior. Non-streaming strategies are
    // deterministic in the prior-free sense and return unchanged
    // assignments, so the loop is a no-op for them.
    for (std::uint32_t pass = 0; pass < config.restream_passes; ++pass) {
        std::vector<std::uint32_t> next =
            shard_assignment(graph, config.num_shards, config.strategy,
                             &assignment, weight_ptr, adj_ptr, threads);
        if (next == assignment)
            break; // converged
        assignment = std::move(next);
    }
    return assignment;
}

std::uint32_t
message_hops(const Model &model)
{
    // Every stage that consumes neighbor state widens the receptive
    // field by one hop: NT-to-MP convs via their aggregated messages,
    // GAT via its gather rounds. Encoder-style stages (msg_dim == 0)
    // are node-local.
    std::uint32_t hops = 0;
    for (std::size_t i = 0; i < model.num_stages(); ++i)
        hops += model.stage(i).msg_dim() > 0;
    return hops;
}

} // namespace flowgnn
