#include "io/graph_file.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "core/parallel.h"
#include "io/fgnb_layout.h"
#include "io/graph_view.h"

namespace flowgnn {

static_assert(std::endian::native == std::endian::little,
              "FGNB is a little-endian format; big-endian hosts would "
              "need byte-swapping readers/writers");

namespace io {

std::uint64_t
fnv1a64(const void *data, std::size_t bytes, std::uint64_t seed)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

} // namespace io

namespace {

using io::FgnbHeader;
using io::fgnb_fail;

struct FileCloser {
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/** Bulk section writer; counts what it wrote. The checksum is taken
 * afterwards, over a mapping of the flushed file. */
class Writer
{
  public:
    Writer(std::FILE *f, const std::string &path) : f_(f), path_(path) {}

    void
    write(const void *data, std::size_t bytes)
    {
        if (bytes == 0)
            return;
        if (std::fwrite(data, 1, bytes, f_) != bytes)
            fgnb_fail(path_, "write failed (disk full?)");
        written_ += bytes;
    }

    std::uint64_t written() const { return written_; }

  private:
    std::FILE *f_;
    const std::string &path_;
    std::uint64_t written_ = 0;
};

} // namespace

void
GraphFile::save(const std::string &path, const GraphSample &sample,
                const GraphSaveOptions &opts)
{
    if (opts.version < io::kGraphFileVersion ||
        opts.version > io::kGraphFileVersionXxh64)
        fgnb_fail(path, "cannot write format version " +
                            std::to_string(opts.version));
    if (!sample.consistent())
        fgnb_fail(path, "refusing to save an inconsistent GraphSample");
    if (sample.node_features.cols() > io::kMaxFeatureDim ||
        sample.edge_features.cols() > io::kMaxFeatureDim)
        fgnb_fail(path, "feature dimension too large for FGNB");

    FgnbHeader h;
    h.version = opts.version;
    h.num_nodes = sample.graph.num_nodes;
    h.num_edges = sample.graph.num_edges();
    h.num_pool_nodes = sample.num_pool_nodes;
    h.label = sample.label;
    if (sample.node_features.cols() > 0) {
        h.flags |= io::kFlagNodeFeatures;
        h.node_dim = sample.node_features.cols();
    }
    if (sample.edge_features.cols() > 0) {
        h.flags |= io::kFlagEdgeFeatures;
        h.edge_dim = sample.edge_features.cols();
    }
    if (!sample.dgn_field.empty())
        h.flags |= io::kFlagDgnField;
    if (!sample.true_in_deg.empty())
        h.flags |= io::kFlagTrueInDeg;
    if (!sample.true_out_deg.empty())
        h.flags |= io::kFlagTrueOutDeg;
    h.payload_bytes = io::fgnb_expected_payload_bytes(h);

    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        fgnb_fail(path, "cannot open for writing");

    // Header slot first (rewritten with the final checksum at the
    // end, so a crash mid-write leaves a file whose checksum cannot
    // verify instead of one that silently half-loads).
    FgnbHeader placeholder = h;
    placeholder.payload_checksum = 0;
    if (std::fwrite(&placeholder, 1, sizeof placeholder, f.get()) !=
        sizeof placeholder)
        fgnb_fail(path, "write failed (disk full?)");

    // Edge endpoints as two columns: one bulk write each, and the
    // natural layout for an mmap reader that views src[] then dst[].
    const std::size_t e = sample.graph.num_edges();
    std::vector<std::uint32_t> column(e);
    Writer w(f.get(), path);
    parallel_ranges(e, opts.threads,
                    [&](std::size_t b, std::size_t end, unsigned) {
                        for (std::size_t i = b; i < end; ++i)
                            column[i] = sample.graph.edges[i].src;
                    });
    w.write(column.data(), e * sizeof(std::uint32_t));
    parallel_ranges(e, opts.threads,
                    [&](std::size_t b, std::size_t end, unsigned) {
                        for (std::size_t i = b; i < end; ++i)
                            column[i] = sample.graph.edges[i].dst;
                    });
    w.write(column.data(), e * sizeof(std::uint32_t));

    if (h.flags & io::kFlagNodeFeatures)
        w.write(sample.node_features.data(),
                sample.node_features.size() * sizeof(float));
    if (h.flags & io::kFlagEdgeFeatures)
        w.write(sample.edge_features.data(),
                sample.edge_features.size() * sizeof(float));
    if (h.flags & io::kFlagDgnField)
        w.write(sample.dgn_field.data(),
                sample.dgn_field.size() * sizeof(float));
    if (h.flags & io::kFlagTrueInDeg)
        w.write(sample.true_in_deg.data(),
                sample.true_in_deg.size() * sizeof(std::uint32_t));
    if (h.flags & io::kFlagTrueOutDeg)
        w.write(sample.true_out_deg.data(),
                sample.true_out_deg.size() * sizeof(std::uint32_t));

    if (w.written() != h.payload_bytes)
        fgnb_fail(path, "internal error: payload size mismatch");
    if (std::fflush(f.get()) != 0)
        fgnb_fail(path, "flush failed (disk full?)");

    {
        // Checksum the payload from a fresh mapping of the flushed
        // file, on all host cores for the chunked versions.
        io::MappedFile m(path);
        if (m.size() != sizeof h + h.payload_bytes)
            fgnb_fail(path, "internal error: flushed size mismatch");
        h.payload_checksum = io::fgnb_payload_checksum(
            h.version, m.data() + sizeof h, h.payload_bytes, opts.threads);
    }

    if (std::fseek(f.get(), 0, SEEK_SET) != 0 ||
        std::fwrite(&h, 1, sizeof h, f.get()) != sizeof h)
        fgnb_fail(path, "write failed while finalizing header");
    if (std::fflush(f.get()) != 0)
        fgnb_fail(path, "flush failed (disk full?)");
}

GraphSample
GraphFile::load(const std::string &path, unsigned threads)
{
    io::GraphView v(path, {.threads = threads});

    GraphSample s;
    s.graph.num_nodes = v.num_nodes();
    s.num_pool_nodes = v.num_pool_nodes();
    s.label = v.label();

    const std::size_t e = v.num_edges();
    const std::size_t n = v.num_nodes();
    const std::uint32_t *src = v.src();
    const std::uint32_t *dst = v.dst();
    s.graph.edges.resize(e);
    parallel_ranges(e, threads,
                    [&](std::size_t b, std::size_t end, unsigned) {
                        for (std::size_t i = b; i < end; ++i)
                            s.graph.edges[i] = {src[i], dst[i]};
                    });

    // Always shaped [num_nodes x node_dim] — consistent() requires a
    // row per node even when no features are stored (node_dim 0).
    s.node_features = Matrix(n, v.node_dim());
    if (v.node_features())
        std::memcpy(s.node_features.data(), v.node_features(),
                    s.node_features.size() * sizeof(float));
    if (v.edge_features()) {
        s.edge_features = Matrix(e, v.edge_dim());
        std::memcpy(s.edge_features.data(), v.edge_features(),
                    s.edge_features.size() * sizeof(float));
    }
    if (v.dgn_field()) {
        s.dgn_field.resize(n);
        std::memcpy(s.dgn_field.data(), v.dgn_field(),
                    n * sizeof(float));
    }
    if (v.true_in_deg()) {
        s.true_in_deg.resize(n);
        std::memcpy(s.true_in_deg.data(), v.true_in_deg(),
                    n * sizeof(std::uint32_t));
    }
    if (v.true_out_deg()) {
        s.true_out_deg.resize(n);
        std::memcpy(s.true_out_deg.data(), v.true_out_deg(),
                    n * sizeof(std::uint32_t));
    }
    return s;
}

} // namespace flowgnn
