/**
 * @file
 * Graph representations used by FlowGNN.
 *
 * Graphs arrive at the accelerator as raw COO edge lists ("streamed in
 * consecutively ... in raw edge-list format with zero CPU
 * intervention", paper Sec. VI-A). The engine converts them on the fly
 * to CSR (for the NT-to-MP / scatter dataflow) or CSC (for the
 * MP-to-NT / gather dataflow, used by GAT). No pre-processing of any
 * kind (no reordering, no partition analysis) is performed, matching
 * the paper's workload-agnostic requirement.
 */
#ifndef FLOWGNN_GRAPH_GRAPH_H
#define FLOWGNN_GRAPH_GRAPH_H

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace flowgnn {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

/**
 * std::allocator whose value-less construct default-initializes, so
 * resizing a vector of plain integers leaves the new slots unwritten:
 * the pass that fills them is the first to touch their pages.
 */
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
    template <class U>
    struct rebind {
        using other = DefaultInitAllocator<U>;
    };

    using std::allocator<T>::allocator;

    template <class U>
    void
    construct(U *p)
    {
        ::new (static_cast<void *>(p)) U;
    }
};

/** An id column that a fill writes in full: resizing it does not
 * zero it first. */
using IdColumn =
    std::vector<std::uint32_t, DefaultInitAllocator<std::uint32_t>>;

/** A directed edge from src to dst with an attached attribute index. */
struct Edge {
    NodeId src;
    NodeId dst;

    bool operator==(const Edge &other) const = default;
};

/**
 * Raw COO (coordinate / edge-list) graph, the streaming wire format.
 *
 * Edge i's attributes (if any) live at row i of the sample's
 * edge-feature matrix, so edge identity is positional.
 */
struct CooGraph {
    NodeId num_nodes = 0;
    std::vector<Edge> edges;

    std::size_t num_edges() const { return edges.size(); }

    /** Out-degree of every node. */
    std::vector<std::uint32_t> out_degrees() const;

    /** In-degree of every node. */
    std::vector<std::uint32_t> in_degrees() const;

    /** True if every endpoint is < num_nodes. */
    bool valid() const;

    /**
     * Returns a copy with reverse edges appended (making the edge set
     * symmetric). Reverse of edge i is edge num_edges()+i, so edge
     * features can be mirrored positionally.
     */
    CooGraph with_reverse_edges() const;
};

/**
 * Non-owning view of an edge list, the common currency of every host
 * hot path (CSR builds, partitioners, closure extraction, plan
 * construction). Two backings share one accessor surface:
 *
 *  - array-of-structs: a CooGraph's Edge vector (in-memory samples),
 *  - columnar: separate src[]/dst[] arrays — exactly the FGNB file's
 *    section layout, so an mmap-backed io::GraphView hands out a
 *    GraphRef over the mapped columns and a graph larger than RAM
 *    streams through the hot paths without ever materializing Edge
 *    structs (see docs/DESIGN.md, "Out-of-core GraphView").
 *
 * The view borrows: the backing (CooGraph or mapped file) must outlive
 * every use.
 */
class GraphRef
{
  public:
    GraphRef() = default;
    /** View over an in-memory COO graph. */
    GraphRef(const CooGraph &coo)
        : num_nodes_(coo.num_nodes), num_edges_(coo.edges.size()),
          aos_(coo.edges.data())
    {
    }
    /** View over columnar src[]/dst[] arrays (each `num_edges` long). */
    GraphRef(NodeId num_nodes, std::size_t num_edges,
             const std::uint32_t *src, const std::uint32_t *dst)
        : num_nodes_(num_nodes), num_edges_(num_edges), col_src_(src),
          col_dst_(dst)
    {
    }

    NodeId num_nodes() const { return num_nodes_; }
    std::size_t num_edges() const { return num_edges_; }

    NodeId src(std::size_t i) const
    {
        return aos_ ? aos_[i].src : col_src_[i];
    }
    NodeId dst(std::size_t i) const
    {
        return aos_ ? aos_[i].dst : col_dst_[i];
    }

    /** Out-degree of every node (parallel, bit-identical to serial;
     * threads 0 = all host cores). Both degree counts throw
     * std::invalid_argument on a counted endpoint out of range. */
    std::vector<std::uint32_t> out_degrees(unsigned threads = 0) const;
    /** In-degree of every node (parallel, bit-identical to serial). */
    std::vector<std::uint32_t> in_degrees(unsigned threads = 0) const;

    /** True if every endpoint is < num_nodes (parallel scan). */
    bool valid(unsigned threads = 0) const;

  private:
    NodeId num_nodes_ = 0;
    std::size_t num_edges_ = 0;
    const Edge *aos_ = nullptr;
    const std::uint32_t *col_src_ = nullptr;
    const std::uint32_t *col_dst_ = nullptr;
};

/**
 * CSR adjacency: for each source node, the list of (dst, edge_id)
 * pairs. Built on the fly per graph; used by the scatter phase.
 */
class CsrGraph
{
  public:
    CsrGraph() = default;
    /**
     * Builds from any edge view — an in-memory CooGraph or mmap-backed
     * columns — with a thread-parallel counting sort (per-thread-range
     * degree counts, prefix-sum merge in thread order, per-range
     * stable fill). The result is bit-identical to the serial build
     * for every thread count; threads 0 = all host cores. Throws
     * std::invalid_argument on an endpoint out of range.
     */
    explicit CsrGraph(const GraphRef &graph, unsigned threads = 0);

    NodeId num_nodes() const { return num_nodes_; }
    std::size_t num_edges() const { return dst_.size(); }

    /** Begin offset of node n's out-edges. */
    std::size_t row_begin(NodeId n) const { return offsets_[n]; }
    /** End offset of node n's out-edges. */
    std::size_t row_end(NodeId n) const { return offsets_[n + 1]; }

    NodeId dst(std::size_t i) const { return dst_[i]; }
    /** Original COO edge index of adjacency slot i. */
    EdgeId edge_id(std::size_t i) const { return edge_id_[i]; }

    std::uint32_t out_degree(NodeId n) const
    {
        return static_cast<std::uint32_t>(row_end(n) - row_begin(n));
    }

  private:
    NodeId num_nodes_ = 0;
    std::vector<std::size_t> offsets_; ///< size num_nodes+1
    IdColumn dst_;
    IdColumn edge_id_;
};

/** Order of one destination's in-edges inside a CscGraph column. */
enum class CscOrder {
    kStream,   ///< COO stream order (edge id ascending)
    /** (src, edge id) ascending: the order a src-major scatter
     * delivers messages to this destination. */
    kSrcMajor,
};

/**
 * CSC adjacency: for each destination node, the list of
 * (src, edge_id) pairs. Used by the gather-first (MP-to-NT) dataflow
 * and, in kSrcMajor order, by the functional kernel's gathers.
 */
class CscGraph
{
  public:
    CscGraph() = default;
    /**
     * Parallel build from any edge view; see CsrGraph(GraphRef). A
     * kSrcMajor build runs two stable counting sorts — by src into a
     * transient CSR (4 B/edge, 8 B/edge with edge ids), then by dst in
     * CSR order. With `edge_ids` false the per-slot edge ids are not
     * stored (edge_id() must not be called). A non-null `out_degrees`
     * receives every node's out-degree from the by-src sort's offsets;
     * only a kSrcMajor build has that sort (std::invalid_argument
     * otherwise).
     */
    explicit CscGraph(const GraphRef &graph, unsigned threads = 0,
                      CscOrder order = CscOrder::kStream,
                      bool edge_ids = true,
                      std::vector<std::uint32_t> *out_degrees = nullptr);

    NodeId num_nodes() const { return num_nodes_; }
    std::size_t num_edges() const { return src_.size(); }

    std::size_t col_begin(NodeId n) const { return offsets_[n]; }
    std::size_t col_end(NodeId n) const { return offsets_[n + 1]; }

    NodeId src(std::size_t i) const { return src_[i]; }
    EdgeId edge_id(std::size_t i) const { return edge_id_[i]; }
    bool has_edge_ids() const { return edge_id_.size() == src_.size(); }

    /** Node n's in-edge sources, in_degree(n) of them. */
    const NodeId *col_srcs(NodeId n) const
    {
        return src_.data() + offsets_[n];
    }
    /** Node n's in-edge ids, or null without edge ids. */
    const EdgeId *col_edge_ids(NodeId n) const
    {
        return has_edge_ids() ? edge_id_.data() + offsets_[n] : nullptr;
    }

    std::uint32_t in_degree(NodeId n) const
    {
        return static_cast<std::uint32_t>(col_end(n) - col_begin(n));
    }

    /** Every node's in-degree, read off the column offsets. */
    std::vector<std::uint32_t> in_degrees() const;

    /**
     * Splits the destinations into `parts` contiguous ranges holding
     * about equal in-edge counts — range p is [b[p], b[p+1]) — so a
     * destination-owned gather balances edges, not nodes.
     */
    std::vector<NodeId> balanced_cols(unsigned parts) const;

  private:
    NodeId num_nodes_ = 0;
    std::vector<std::size_t> offsets_;
    IdColumn src_;
    IdColumn edge_id_;
};

} // namespace flowgnn

#endif // FLOWGNN_GRAPH_GRAPH_H
