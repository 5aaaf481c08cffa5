/**
 * @file
 * flowgnn::io::GraphView — the out-of-core FGNB reader.
 *
 * GraphFile::load copies every section into a GraphSample; fine for
 * graphs that fit comfortably in RAM, ruinous at full-Reddit scale
 * where the Edge-struct materialization alone doubles the footprint.
 * GraphView instead mmaps the file read-only and hands out typed
 * pointers straight into the mapped column sections — src[], dst[],
 * features, degree overrides — with the same validation guarantees as
 * the copying loader (header checks, endpoint range checks, payload
 * checksum). graph() / sample() adapt the mapped columns to the
 * GraphRef / SampleRef surfaces the partitioners, planners, and engine
 * consume, so a graph larger than RAM streams through the host hot
 * paths page-by-page: the kernel pages column bytes in on first touch
 * and evicts them under pressure, and nothing is ever copied.
 */
#ifndef FLOWGNN_IO_GRAPH_VIEW_H
#define FLOWGNN_IO_GRAPH_VIEW_H

#include <cstdint>
#include <string>

#include "graph/sample.h"
#include "io/fgnb_layout.h"

namespace flowgnn {
namespace io {

/**
 * RAII read-only memory map of a whole file. Sizes the file with
 * fstat (64-bit off_t), so multi-GiB files map correctly on every
 * platform — the mmap-path fix for the 32-bit-ftell loader bug.
 */
class MappedFile
{
  public:
    MappedFile() = default;
    /** Maps `path` read-only; throws GraphFileError on failure. */
    explicit MappedFile(const std::string &path);
    ~MappedFile();

    MappedFile(MappedFile &&other) noexcept;
    MappedFile &operator=(MappedFile &&other) noexcept;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const unsigned char *data() const { return data_; }
    std::uint64_t size() const { return size_; }

    /** Advises the kernel the mapped pages are no longer needed
     * (madvise MADV_DONTNEED) — drops resident set without unmapping;
     * later touches fault the pages back in. */
    void drop_pages() const;

  private:
    unsigned char *data_ = nullptr;
    std::uint64_t size_ = 0;
};

struct GraphViewOptions {
    /** Host threads for validation/checksum; 0 = all cores. */
    unsigned threads = 0;
    /** Verify the payload checksum on open. Opting out skips one full
     * read of the file — for repeated reopens of a file verified
     * earlier in the same pipeline. */
    bool verify_checksum = true;
};

/**
 * Validated, mmap-backed, read-only view of one FGNB file (v1-v3).
 * Accessors return pointers into the mapping; null means the section
 * is absent. The view must outlive every GraphRef/SampleRef taken
 * from it.
 */
class GraphView
{
  public:
    explicit GraphView(const std::string &path,
                       GraphViewOptions opts = {});

    NodeId num_nodes() const
    {
        return static_cast<NodeId>(h_.num_nodes);
    }
    std::size_t num_edges() const
    {
        return static_cast<std::size_t>(h_.num_edges);
    }
    std::size_t node_dim() const
    {
        return static_cast<std::size_t>(h_.node_dim);
    }
    std::size_t edge_dim() const
    {
        return static_cast<std::size_t>(h_.edge_dim);
    }
    NodeId num_pool_nodes() const
    {
        return static_cast<NodeId>(h_.num_pool_nodes);
    }
    float label() const { return h_.label; }
    std::uint32_t version() const { return h_.version; }
    const std::string &path() const { return path_; }

    /** Edge source column, num_edges() entries. */
    const std::uint32_t *src() const { return src_; }
    /** Edge destination column, num_edges() entries. */
    const std::uint32_t *dst() const { return dst_; }
    /** [num_nodes x node_dim] row-major, or null. */
    const float *node_features() const { return node_features_; }
    /** [num_edges x edge_dim] row-major, or null. */
    const float *edge_features() const { return edge_features_; }
    /** Per-node DGN scalar field, or null. */
    const float *dgn_field() const { return dgn_field_; }
    const std::uint32_t *true_in_deg() const { return true_in_deg_; }
    const std::uint32_t *true_out_deg() const { return true_out_deg_; }

    /** The mapped edge list as the hot paths' common currency. */
    GraphRef graph() const
    {
        return GraphRef(num_nodes(), num_edges(), src_, dst_);
    }

    /** Full SampleRef over the mapped sections. Engine-ready when the
     * file carries node features; callers supply generated features
     * otherwise (see load_graph_sample's feature policy). */
    SampleRef sample() const;

    /** Forwarded MappedFile::drop_pages. */
    void drop_pages() const { map_.drop_pages(); }

  private:
    std::string path_;
    MappedFile map_;
    FgnbHeader h_;
    const std::uint32_t *src_ = nullptr;
    const std::uint32_t *dst_ = nullptr;
    const float *node_features_ = nullptr;
    const float *edge_features_ = nullptr;
    const float *dgn_field_ = nullptr;
    const std::uint32_t *true_in_deg_ = nullptr;
    const std::uint32_t *true_out_deg_ = nullptr;
};

} // namespace io
} // namespace flowgnn

#endif // FLOWGNN_IO_GRAPH_VIEW_H
