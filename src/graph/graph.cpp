#include "graph/graph.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/parallel.h"

namespace flowgnn {

std::vector<std::uint32_t>
CooGraph::out_degrees() const
{
    return GraphRef(*this).out_degrees(1);
}

std::vector<std::uint32_t>
CooGraph::in_degrees() const
{
    return GraphRef(*this).in_degrees(1);
}

bool
CooGraph::valid() const
{
    return GraphRef(*this).valid(1);
}

CooGraph
CooGraph::with_reverse_edges() const
{
    CooGraph out;
    out.num_nodes = num_nodes;
    out.edges.reserve(edges.size() * 2);
    out.edges = edges;
    for (const auto &e : edges)
        out.edges.push_back({e.dst, e.src});
    return out;
}

namespace {

/**
 * Per-endpoint counts for a GraphRef: per-thread-range count arrays
 * merged in thread order, so the result is bit-identical to a serial
 * count for any thread count. Throws std::invalid_argument on a
 * counted endpoint out of range.
 */
std::vector<std::uint32_t>
count_endpoints(const GraphRef &g, unsigned threads, bool by_src)
{
    const NodeId n = g.num_nodes();
    const std::size_t e = g.num_edges();
    const unsigned T = parallel_range_count(e, threads);
    std::vector<std::vector<std::uint32_t>> parts(
        T, std::vector<std::uint32_t>(n, 0));
    parallel_ranges(e, threads,
                    [&](std::size_t b, std::size_t end, unsigned tid) {
                        std::vector<std::uint32_t> &c = parts[tid];
                        for (std::size_t i = b; i < end; ++i) {
                            const NodeId v = by_src ? g.src(i) : g.dst(i);
                            if (v >= n)
                                throw std::invalid_argument(
                                    "degree count: edge endpoint out of "
                                    "range");
                            ++c[v];
                        }
                    });
    if (T == 1)
        return std::move(parts[0]);
    std::vector<std::uint32_t> &out = parts[0];
    parallel_ranges(n, threads,
                    [&](std::size_t b, std::size_t end, unsigned) {
                        for (std::size_t v = b; v < end; ++v)
                            for (unsigned t = 1; t < T; ++t)
                                out[v] += parts[t][v];
                    });
    return std::move(out);
}

/**
 * The shared parallel counting sort behind CsrGraph/CscGraph: groups a
 * stream of `e` edges by key, preserving the stream order within every
 * group — per-thread-range counts, a serial prefix scan interleaving
 * (key, thread) in that order, then a parallel stable fill where
 * thread t writes its own range at precomputed cursors. Bit-identical
 * to the serial build for every thread count. `stream(b, end, fn)`
 * calls fn(key, value, id) for stream positions [b, end) in order;
 * ids are written only when `edge_id` is non-null.
 */
template <class Stream>
void
counting_sort(NodeId n, std::size_t e, unsigned threads,
              const Stream &stream, std::vector<std::size_t> &offsets,
              IdColumn &val, IdColumn *edge_id)
{
    const unsigned T = parallel_range_count(e, threads);
    std::vector<std::vector<std::uint32_t>> counts(
        T, std::vector<std::uint32_t>(n, 0));
    parallel_ranges(
        e, threads, [&](std::size_t b, std::size_t end, unsigned tid) {
            std::vector<std::uint32_t> &c = counts[tid];
            stream(b, end,
                   [&](NodeId key, NodeId, EdgeId) { ++c[key]; });
        });

    // Prefix scan in (key, thread) order: counts[t][v] becomes the
    // first slot thread t fills for key v. Cursor values fit uint32
    // because EdgeId does.
    offsets.assign(std::size_t(n) + 1, 0);
    std::size_t running = 0;
    for (NodeId v = 0; v < n; ++v) {
        offsets[v] = running;
        for (unsigned t = 0; t < T; ++t) {
            const std::uint32_t c = counts[t][v];
            counts[t][v] = static_cast<std::uint32_t>(running);
            running += c;
        }
    }
    offsets[n] = running;

    val.resize(e);
    if (edge_id != nullptr)
        edge_id->resize(e);
    parallel_ranges(
        e, threads, [&](std::size_t b, std::size_t end, unsigned tid) {
            std::vector<std::uint32_t> &cur = counts[tid];
            stream(b, end, [&](NodeId key, NodeId value, EdgeId id) {
                const std::uint32_t slot = cur[key]++;
                val[slot] = value;
                if (edge_id != nullptr)
                    (*edge_id)[slot] = id;
            });
        });
}

/**
 * Groups the edges of `g` by one endpoint (`by_src`), keeping the
 * other endpoint and the edge id, in edge-stream order within every
 * group. Throws on an endpoint out of range.
 */
void
build_adjacency(const GraphRef &g, unsigned threads, bool by_src,
                const char *what, std::vector<std::size_t> &offsets,
                IdColumn &val, IdColumn *edge_id)
{
    const NodeId n = g.num_nodes();
    auto stream = [&](std::size_t b, std::size_t end, auto &&fn) {
        for (std::size_t i = b; i < end; ++i) {
            const NodeId s = g.src(i);
            const NodeId d = g.dst(i);
            if (s >= n || d >= n)
                throw std::invalid_argument(
                    std::string(what) + ": edge endpoint out of range");
            fn(by_src ? s : d, by_src ? d : s, static_cast<EdgeId>(i));
        }
    };
    counting_sort(n, g.num_edges(), threads, stream, offsets, val,
                  edge_id);
}

} // namespace

std::vector<std::uint32_t>
GraphRef::out_degrees(unsigned threads) const
{
    return count_endpoints(*this, threads, /*by_src=*/true);
}

std::vector<std::uint32_t>
GraphRef::in_degrees(unsigned threads) const
{
    return count_endpoints(*this, threads, /*by_src=*/false);
}

bool
GraphRef::valid(unsigned threads) const
{
    const std::size_t e = num_edges_;
    const unsigned T = parallel_range_count(e, threads);
    std::vector<std::uint8_t> ok(T, 1);
    parallel_ranges(e, threads,
                    [&](std::size_t b, std::size_t end, unsigned tid) {
                        for (std::size_t i = b; i < end; ++i)
                            if (src(i) >= num_nodes_ ||
                                dst(i) >= num_nodes_) {
                                ok[tid] = 0;
                                return;
                            }
                    });
    for (std::uint8_t o : ok)
        if (!o)
            return false;
    return true;
}

CsrGraph::CsrGraph(const GraphRef &graph, unsigned threads)
    : num_nodes_(graph.num_nodes())
{
    build_adjacency(graph, threads, /*by_src=*/true, "CsrGraph",
                    offsets_, dst_, &edge_id_);
}

CscGraph::CscGraph(const GraphRef &graph, unsigned threads, CscOrder order,
                   bool edge_ids, std::vector<std::uint32_t> *out_degrees)
    : num_nodes_(graph.num_nodes())
{
    IdColumn *ids = edge_ids ? &edge_id_ : nullptr;
    if (order == CscOrder::kStream) {
        if (out_degrees != nullptr)
            throw std::invalid_argument(
                "CscGraph: out-degrees need a src-major build");
        build_adjacency(graph, threads, /*by_src=*/false, "CscGraph",
                        offsets_, src_, ids);
        return;
    }
    // Two stable counting sorts: by src into a transient CSR (slots in
    // (src, edge id) order), then that CSR stream by dst — which leaves
    // every column in (src, edge id) order.
    std::vector<std::size_t> row;
    IdColumn dst;
    IdColumn row_ids;
    build_adjacency(graph, threads, /*by_src=*/true, "CscGraph", row, dst,
                    edge_ids ? &row_ids : nullptr);
    if (out_degrees != nullptr) {
        out_degrees->resize(num_nodes_);
        for (NodeId v = 0; v < num_nodes_; ++v)
            (*out_degrees)[v] =
                static_cast<std::uint32_t>(row[v + 1] - row[v]);
    }
    auto stream = [&](std::size_t b, std::size_t end, auto &&fn) {
        // The row holding slot b, then advance row by row.
        auto r = static_cast<NodeId>(
            std::upper_bound(row.begin(), row.end(), b) - row.begin() - 1);
        for (std::size_t s = b; s < end; ++s) {
            while (row[r + 1] <= s)
                ++r;
            fn(dst[s], r, edge_ids ? row_ids[s] : EdgeId(0));
        }
    };
    counting_sort(num_nodes_, dst.size(), threads, stream, offsets_, src_,
                  ids);
}

std::vector<std::uint32_t>
CscGraph::in_degrees() const
{
    std::vector<std::uint32_t> deg(num_nodes_);
    for (NodeId v = 0; v < num_nodes_; ++v)
        deg[v] = in_degree(v);
    return deg;
}

std::vector<NodeId>
CscGraph::balanced_cols(unsigned parts) const
{
    // Range p starts at the first column whose offset reaches p/parts
    // of the edges.
    std::vector<NodeId> bounds(parts + 1, num_nodes_);
    const std::size_t e = src_.size();
    for (unsigned p = 0; p < parts; ++p)
        bounds[p] = static_cast<NodeId>(
            std::lower_bound(offsets_.begin(), offsets_.end() - 1,
                             e * p / parts) -
            offsets_.begin());
    return bounds;
}

} // namespace flowgnn
