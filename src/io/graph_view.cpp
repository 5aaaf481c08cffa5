#include "io/graph_view.h"

#include <cerrno>
#include <cstring>
#include <limits>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/parallel.h"
#include "obs/trace_session.h"

namespace flowgnn {
namespace io {

MappedFile::MappedFile(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        fgnb_fail(path, "cannot open for reading");
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        fgnb_fail(path, "stat failed");
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
    if (size_ > 0) {
        void *addr = ::mmap(nullptr, static_cast<std::size_t>(size_),
                            PROT_READ, MAP_PRIVATE, fd, 0);
        if (addr == MAP_FAILED) {
            ::close(fd);
            // errno_message, not std::strerror: this constructor runs
            // on parallel loader threads (concurrency-mt-unsafe).
            fgnb_fail(path,
                      "mmap failed: " + errno_message(errno));
        }
        data_ = static_cast<unsigned char *>(addr);
    }
    ::close(fd);
}

MappedFile::~MappedFile()
{
    if (data_)
        ::munmap(data_, static_cast<std::size_t>(size_));
}

MappedFile::MappedFile(MappedFile &&other) noexcept
    : data_(other.data_), size_(other.size_)
{
    other.data_ = nullptr;
    other.size_ = 0;
}

MappedFile &
MappedFile::operator=(MappedFile &&other) noexcept
{
    if (this != &other) {
        if (data_)
            ::munmap(data_, static_cast<std::size_t>(size_));
        data_ = other.data_;
        size_ = other.size_;
        other.data_ = nullptr;
        other.size_ = 0;
    }
    return *this;
}

void
MappedFile::drop_pages() const
{
    if (data_)
        ::madvise(data_, static_cast<std::size_t>(size_),
                  MADV_DONTNEED);
}

GraphView::GraphView(const std::string &path, GraphViewOptions opts)
    : path_(path), map_(path)
{
    obs::Span open_span(obs::Track::kIo, "open: mmap + header");
    if (map_.size() < sizeof(std::uint32_t) ||
        std::memcmp(map_.data(), &kGraphFileMagic,
                    sizeof(std::uint32_t)) != 0)
        fgnb_fail(path, "bad magic (not an FGNB graph file)");
    if (map_.size() < sizeof(FgnbHeader))
        fgnb_fail(path, "truncated header");
    std::memcpy(&h_, map_.data(), sizeof h_);
    fgnb_validate_header(h_, map_.size(), path);

    const unsigned char *p = map_.data() + sizeof h_;
    const std::size_t e = num_edges();
    const std::size_t n = num_nodes();
    src_ = reinterpret_cast<const std::uint32_t *>(p);
    p += e * sizeof(std::uint32_t);
    dst_ = reinterpret_cast<const std::uint32_t *>(p);
    p += e * sizeof(std::uint32_t);
    if (h_.flags & kFlagNodeFeatures) {
        node_features_ = reinterpret_cast<const float *>(p);
        p += n * node_dim() * sizeof(float);
    }
    if (h_.flags & kFlagEdgeFeatures) {
        edge_features_ = reinterpret_cast<const float *>(p);
        p += e * edge_dim() * sizeof(float);
    }
    if (h_.flags & kFlagDgnField) {
        dgn_field_ = reinterpret_cast<const float *>(p);
        p += n * sizeof(float);
    }
    if (h_.flags & kFlagTrueInDeg) {
        true_in_deg_ = reinterpret_cast<const std::uint32_t *>(p);
        p += n * sizeof(std::uint32_t);
    }
    if (h_.flags & kFlagTrueOutDeg) {
        true_out_deg_ = reinterpret_cast<const std::uint32_t *>(p);
        p += n * sizeof(std::uint32_t);
    }

    open_span.finish();

    // Endpoint validation before anything downstream can index with a
    // hostile id. Parallel scan; the *lowest* offending edge index is
    // reported so the diagnostic matches the serial loader's exactly.
    obs::Span validate_span(obs::Track::kIo, "validate endpoints");
    const std::uint64_t nn = h_.num_nodes;
    const unsigned T = parallel_range_count(e, opts.threads);
    std::vector<std::size_t> first_bad(
        T, std::numeric_limits<std::size_t>::max());
    parallel_ranges(e, opts.threads,
                    [&](std::size_t b, std::size_t end, unsigned tid) {
                        for (std::size_t i = b; i < end; ++i)
                            if (src_[i] >= nn || dst_[i] >= nn) {
                                first_bad[tid] = i;
                                return;
                            }
                    });
    for (std::size_t bad : first_bad)
        if (bad != std::numeric_limits<std::size_t>::max())
            fgnb_fail(path,
                      "edge " + std::to_string(bad) + " endpoint (" +
                          std::to_string(src_[bad]) + ", " +
                          std::to_string(dst_[bad]) +
                          ") out of range for " + std::to_string(nn) +
                          " nodes");

    validate_span.finish();

    if (opts.verify_checksum) {
        obs::Span checksum_span(obs::Track::kIo, "payload checksum");
        const unsigned char *payload = map_.data() + sizeof h_;
        if (fgnb_payload_checksum(h_.version, payload, h_.payload_bytes,
                                  opts.threads) != h_.payload_checksum)
            fgnb_fail(path, "payload checksum mismatch (corrupt or "
                            "partially-written file)");
    }
}

SampleRef
GraphView::sample() const
{
    SampleRef s;
    s.graph = graph();
    s.node_features = node_features_;
    s.node_dim = node_features_ ? node_dim() : 0;
    s.edge_features = edge_features_;
    s.edge_dim = edge_features_ ? edge_dim() : 0;
    s.num_pool_nodes = num_pool_nodes();
    s.dgn_field = dgn_field_;
    s.true_in_deg = true_in_deg_;
    s.true_out_deg = true_out_deg_;
    s.label = label();
    return s;
}

} // namespace io
} // namespace flowgnn
