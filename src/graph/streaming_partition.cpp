#include "graph/streaming_partition.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/parallel.h"

namespace flowgnn {

UndirectedCsr
build_undirected_csr(const GraphRef &graph, unsigned threads,
                     std::vector<std::uint32_t> *in_degrees)
{
    const NodeId n = graph.num_nodes();
    const std::size_t e = graph.num_edges();
    UndirectedCsr out;
    out.offsets.assign(std::size_t(n) + 1, 0);

    // Pass 1: symmetrized counts, duplicates included (self-loops are
    // dropped here: a node is never its own neighbor). Per-thread
    // count arrays; a non-self edge contributes one entry to each
    // endpoint's row. When the in-degrees are asked for, each count
    // packs two 32-bit halves: the symmetrized count below, and above
    // it the in-degree, to which every edge (self-loops included)
    // adds one at its destination. Both halves are exact below 2^31
    // edges; a larger graph counts its in-degrees in a pass of their
    // own.
    static_assert(sizeof(std::size_t) == 8, "packed counts need 64 bits");
    const bool packed =
        in_degrees != nullptr && e < (std::size_t(1) << 31);
    const std::size_t in_unit = packed ? std::size_t(1) << 32 : 0;
    const std::size_t count_mask =
        packed ? (std::size_t(1) << 32) - 1 : ~std::size_t(0);
    const unsigned T = parallel_range_count(e, threads);
    std::vector<std::vector<std::size_t>> cursors(
        T, std::vector<std::size_t>(n, 0));
    parallel_ranges(
        e, threads, [&](std::size_t b, std::size_t end, unsigned tid) {
            std::vector<std::size_t> &c = cursors[tid];
            for (std::size_t i = b; i < end; ++i) {
                const NodeId s = graph.src(i);
                const NodeId d = graph.dst(i);
                if (s >= n || d >= n)
                    throw std::invalid_argument(
                        "build_undirected_csr: edge endpoint out of "
                        "range");
                if (s == d) {
                    c[d] += in_unit;
                    continue;
                }
                ++c[s];
                c[d] += in_unit + 1;
            }
        });
    if (packed)
        in_degrees->assign(n, 0);
    else if (in_degrees != nullptr)
        *in_degrees = graph.in_degrees(threads);

    // Prefix scan in (node, thread) order: the count cursors[t][v]
    // becomes the first slot thread t fills in row v. The per-range
    // fill visits edges in stream order within each contiguous
    // ascending range, so concatenating ranges in thread order
    // reproduces the serial stream order exactly. Cursors are size_t:
    // a symmetrized list holds up to 2 * num_edges entries, which can
    // exceed 32 bits.
    std::size_t running = 0;
    for (NodeId v = 0; v < n; ++v) {
        out.offsets[v] = running;
        for (unsigned t = 0; t < T; ++t) {
            const std::size_t c = std::exchange(cursors[t][v], running);
            if (packed)
                (*in_degrees)[v] += static_cast<std::uint32_t>(c >> 32);
            running += c & count_mask;
        }
    }
    out.offsets[n] = running;

    // The resize leaves the list unwritten (DefaultInitAllocator), so
    // the parallel fill is the first to touch its pages.
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

    // Pass 2: dedupe every row, keeping only the first occurrence of
    // each neighbor (order-preserving — a multigraph and its simple
    // graph yield the same rows). Rows split into blocks of about
    // equal entry count; each block compacts its rows toward its own
    // first slot with a private seen[] (seen[u] holds the last row
    // that admitted u, and rows are visited in ascending order, so
    // `seen[u] == v` means "already in row v"). Blocks are disjoint,
    // so they run in parallel; any split yields the same rows.
    const unsigned B = parallel_range_count(running, threads);
    std::vector<NodeId> block_row(B + 1, n);
    block_row[0] = 0;
    for (unsigned b = 1; b < B; ++b)
        block_row[b] = static_cast<NodeId>(
            std::lower_bound(out.offsets.begin(), out.offsets.end(),
                             running * b / B) -
            out.offsets.begin());
    std::vector<std::uint32_t> new_len(n);
    std::vector<std::size_t> block_len(B, 0);
    parallel_ranges(
        B, threads,
        [&](std::size_t first, std::size_t last, unsigned) {
            std::vector<NodeId> seen(n, n);
            for (std::size_t b = first; b < last; ++b) {
                std::size_t w = out.offsets[block_row[b]];
                const std::size_t block_begin = w;
                for (NodeId v = block_row[b]; v < block_row[b + 1]; ++v) {
                    const std::size_t row_w = w;
                    for (std::size_t i = out.offsets[v];
                         i < out.offsets[v + 1]; ++i) {
                        const NodeId u = out.nbr[i];
                        if (seen[u] == v)
                            continue;
                        seen[u] = v;
                        out.nbr[w++] = u;
                    }
                    new_len[v] = static_cast<std::uint32_t>(w - row_w);
                }
                block_len[b] = w - block_begin;
            }
        },
        /*serial_cutoff=*/2);

    // Close the gaps: B block moves in ascending order (a block's
    // destination never lies past its source), then the offsets.
    std::size_t w = 0;
    for (unsigned b = 0; b < B; ++b) {
        const std::size_t src = out.offsets[block_row[b]];
        if (w != src)
            std::memmove(out.nbr.data() + w, out.nbr.data() + src,
                         block_len[b] * sizeof(NodeId));
        w += block_len[b];
    }
    for (NodeId v = 0; v < n; ++v)
        out.offsets[v + 1] = out.offsets[v] + new_len[v];
    out.nbr.resize(w);
    return out;
}

namespace {

enum class StreamKind { kLdg, kFennel, kHdrf };

/** Interleaved neighbor-count histograms: consecutive neighbors bump
 * different copies, so runs of neighbors on one partition do not
 * chain each increment on the store before it. */
constexpr std::size_t kHistCopies = 4;

/**
 * The shared one-pass skeleton: vertices stream in ascending id
 * order; each is placed by the kind's score over the partitions its
 * distinct neighbors chose. Loads are vertex-weight sums (1 per
 * vertex without weights). A partition is eligible while its load is
 * below the hard capacity (balance_slack * ideal share) — the placed
 * weight is below W <= P * capacity while a vertex of weight >= 1 is
 * left, so some partition always is — and ties break to the
 * least-loaded, then lowest-index partition.
 *
 * One label array carries the whole pass: it starts as the prior
 * (restreaming: a neighbor not yet re-placed this pass contributes
 * its prior-pass partition), with a label >= P or no prior at all
 * mapped to the dummy bin P that no score reads, and each vertex's
 * label is overwritten in place once it is placed. After the pass it
 * is the assignment.
 */
std::vector<std::uint32_t>
stream_partition(const UndirectedCsr &adj, std::uint32_t num_partitions,
                 const StreamingPartitionConfig &config, StreamKind kind,
                 const std::vector<std::uint32_t> *prior,
                 const std::vector<std::uint32_t> *weight)
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
    if (weight != nullptr && weight->size() != n)
        throw std::invalid_argument(
            "stream_partition: weight size mismatch");
    // The total weight W: n for unit weights.
    std::uint64_t total = n;
    if (weight != nullptr) {
        total = 0;
        for (std::uint32_t w : *weight) {
            if (w == 0)
                throw std::invalid_argument(
                    "stream_partition: a vertex weight is 0");
            total += w;
        }
    }
    if (n == 0 || num_partitions == 1)
        return std::vector<std::uint32_t>(n, 0);

    const std::uint32_t P = num_partitions;

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

    std::vector<std::uint32_t> label(n, P);
    if (prior != nullptr)
        for (NodeId v = 0; v < n; ++v)
            label[v] = std::min((*prior)[v], P);

    const std::size_t bins = std::size_t(P) + 1; // + the dummy bin
    std::vector<std::uint64_t> load(P, 0);
    // Fennel's W_p^(gamma-1), recomputed only when load[p] changes.
    std::vector<double> load_pow(P, std::pow(0.0, gamma - 1.0));
    std::vector<double> pull(bins, 0.0); ///< per-partition neighbor score
    std::vector<std::uint32_t> hist(kHistCopies * bins, 0);

    for (NodeId v = 0; v < n; ++v) {
        const std::size_t begin = adj.row_begin(v);
        const std::size_t end = adj.row_end(v);
        if (kind == StreamKind::kHdrf) {
            // Low-degree neighbors pull harder than hubs: weight
            // 2 - d(u)/(d(u)+d(v)), in (1, 2). A double sum, so it
            // keeps row order within each partition's bin.
            const double dv = adj.degree(v);
            std::fill(pull.begin(), pull.end(), 0.0);
            for (std::size_t i = begin; i < end; ++i) {
                const NodeId u = adj.nbr[i];
                const double du = adj.degree(u);
                pull[label[u]] += 2.0 - du / (du + dv);
            }
        } else {
            // Distinct-neighbor counts, exact as integers; converted
            // once per vertex, they equal a sum of 1.0s bit for bit.
            std::size_t i = begin;
            for (; i + kHistCopies <= end; i += kHistCopies)
                for (std::size_t c = 0; c < kHistCopies; ++c)
                    ++hist[c * bins + label[adj.nbr[i + c]]];
            for (std::size_t c = 0; i < end; ++i, ++c)
                ++hist[c * bins + label[adj.nbr[i]]];
            for (std::uint32_t p = 0; p < P; ++p) {
                std::uint32_t count = 0;
                for (std::size_t c = 0; c < kHistCopies; ++c)
                    count += hist[c * bins + p];
                pull[p] = double(count);
            }
            std::fill(hist.begin(), hist.end(), 0);
        }

        double max_load = 0.0;
        double min_load = 0.0;
        if (kind == StreamKind::kHdrf) {
            auto [mn, mx] = std::minmax_element(load.begin(), load.end());
            min_load = double(*mn);
            max_load = double(*mx);
        }

        const std::uint32_t w = weight != nullptr ? (*weight)[v] : 1;
        // Fennel's marginal penalty per unit of W_p^(gamma-1).
        const double penalty = alpha * gamma * double(w);
        std::uint32_t best = P;
        double best_score = 0.0;
        std::uint64_t best_load = 0;
        for (std::uint32_t p = 0; p < P; ++p) {
            if (load[p] >= cap)
                continue; // hard balance bound
            double score = 0.0;
            switch (kind) {
              case StreamKind::kLdg:
                score = pull[p] * (1.0 - double(load[p]) / double(ideal));
                break;
              case StreamKind::kFennel:
                score = pull[p] - penalty * load_pow[p];
                break;
              case StreamKind::kHdrf:
                score = pull[p] +
                        config.hdrf_lambda * (max_load - double(load[p])) /
                            (1.0 + max_load - min_load);
                break;
            }
            if (best == P || score > best_score ||
                (score == best_score && load[p] < best_load)) {
                best = p;
                best_score = score;
                best_load = load[p];
            }
        }
        label[v] = best;
        load[best] += w;
        load_pow[best] = std::pow(double(load[best]), gamma - 1.0);
    }
    return label;
}

} // namespace

std::vector<std::uint32_t>
ldg_partition(const UndirectedCsr &adj, std::uint32_t num_partitions,
              const StreamingPartitionConfig &config,
              const std::vector<std::uint32_t> *prior,
              const std::vector<std::uint32_t> *weight)
{
    return stream_partition(adj, num_partitions, config,
                            StreamKind::kLdg, prior, weight);
}

std::vector<std::uint32_t>
fennel_partition(const UndirectedCsr &adj, std::uint32_t num_partitions,
                 const StreamingPartitionConfig &config,
                 const std::vector<std::uint32_t> *prior,
                 const std::vector<std::uint32_t> *weight)
{
    return stream_partition(adj, num_partitions, config,
                            StreamKind::kFennel, prior, weight);
}

std::vector<std::uint32_t>
hdrf_partition(const UndirectedCsr &adj, std::uint32_t num_partitions,
               const StreamingPartitionConfig &config,
               const std::vector<std::uint32_t> *prior,
               const std::vector<std::uint32_t> *weight)
{
    return stream_partition(adj, num_partitions, config,
                            StreamKind::kHdrf, prior, weight);
}

} // namespace flowgnn
