#include "io/fgnb_layout.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/parallel.h"
#include "graph/graph.h"

namespace flowgnn {
namespace io {

[[noreturn]] void
fgnb_fail(const std::string &path, const std::string &reason)
{
    throw GraphFileError("graph file '" + path + "': " + reason);
}

std::string
errno_message(int err)
{
    char buf[256] = {};
#if defined(_GNU_SOURCE) || (defined(__GLIBC__) && defined(__USE_GNU))
    // GNU strerror_r may return a pointer into a static table instead
    // of filling buf; either way the returned pointer is the message
    // and the call itself is thread-safe.
    return std::string(strerror_r(err, buf, sizeof buf));
#else
    // XSI strerror_r fills buf and returns an int.
    if (strerror_r(err, buf, sizeof buf) != 0)
        std::snprintf(buf, sizeof buf, "errno %d", err);
    return std::string(buf);
#endif
}

std::uint64_t
fgnb_expected_payload_bytes(const FgnbHeader &h)
{
    std::uint64_t bytes = 2 * h.num_edges * sizeof(std::uint32_t);
    if (h.flags & kFlagNodeFeatures)
        bytes += h.num_nodes * h.node_dim * sizeof(float);
    if (h.flags & kFlagEdgeFeatures)
        bytes += h.num_edges * h.edge_dim * sizeof(float);
    if (h.flags & kFlagDgnField)
        bytes += h.num_nodes * sizeof(float);
    if (h.flags & kFlagTrueInDeg)
        bytes += h.num_nodes * sizeof(std::uint32_t);
    if (h.flags & kFlagTrueOutDeg)
        bytes += h.num_nodes * sizeof(std::uint32_t);
    return bytes;
}

void
fgnb_validate_header(const FgnbHeader &h, std::uint64_t file_bytes,
                     const std::string &path)
{
    if (h.version < kGraphFileVersion || h.version > kGraphFileVersionXxh64)
        fgnb_fail(path,
                  "unsupported format version " +
                      std::to_string(h.version) + " (reader supports " +
                      std::to_string(kGraphFileVersion) + "-" +
                      std::to_string(kGraphFileVersionXxh64) + ")");
    if (h.header_bytes != sizeof(FgnbHeader))
        fgnb_fail(path, "header size mismatch");
    if (h.num_nodes > std::numeric_limits<NodeId>::max())
        fgnb_fail(path, "num_nodes " + std::to_string(h.num_nodes) +
                            " overflows the 32-bit node id space");
    if (h.num_edges > std::numeric_limits<EdgeId>::max())
        fgnb_fail(path, "num_edges " + std::to_string(h.num_edges) +
                            " overflows the 32-bit edge id space");
    if (h.num_pool_nodes > h.num_nodes)
        fgnb_fail(path, "num_pool_nodes exceeds num_nodes");
    if (h.node_dim > kMaxFeatureDim || h.edge_dim > kMaxFeatureDim)
        fgnb_fail(path, "implausible feature dimension (corrupt "
                        "header?)");
    if (((h.flags & kFlagNodeFeatures) != 0) != (h.node_dim > 0))
        fgnb_fail(path, "node-feature flag disagrees with node_dim");
    if (((h.flags & kFlagEdgeFeatures) != 0) != (h.edge_dim > 0))
        fgnb_fail(path, "edge-feature flag disagrees with edge_dim");
    if (h.payload_bytes != fgnb_expected_payload_bytes(h))
        fgnb_fail(path, "payload size disagrees with section flags");
    if (file_bytes != sizeof(FgnbHeader) + h.payload_bytes)
        fgnb_fail(path,
                  file_bytes < sizeof(FgnbHeader) + h.payload_bytes
                      ? "truncated file (payload shorter than header "
                        "promises)"
                      : "trailing bytes after payload");
}

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

template <class T>
T
read_le(const unsigned char *p)
{
    T v;
    std::memcpy(&v, p, sizeof v); // FGNB hosts are little-endian
    return v;
}

std::uint64_t
xxh_round(std::uint64_t acc, std::uint64_t lane)
{
    return std::rotl(acc + lane * kPrime2, 31) * kPrime1;
}

std::uint64_t
xxh_merge(std::uint64_t h, std::uint64_t acc)
{
    return (h ^ xxh_round(0, acc)) * kPrime1 + kPrime4;
}

/** Hashes `bytes` in `chunk_bytes` chunks on `threads`, then folds the
 * digests with the same hash (see fgnb_payload_checksum). */
template <class Hash>
std::uint64_t
chunked_checksum(const unsigned char *base, std::uint64_t bytes,
                 std::uint64_t chunk_bytes, unsigned threads, Hash hash)
{
    const std::size_t chunks =
        static_cast<std::size_t>((bytes + chunk_bytes - 1) / chunk_bytes);
    std::vector<std::uint64_t> digests(chunks);
    parallel_ranges(
        chunks, threads,
        [&](std::size_t b, std::size_t end, unsigned) {
            for (std::size_t c = b; c < end; ++c) {
                const std::uint64_t off = c * chunk_bytes;
                const std::uint64_t len = std::min(chunk_bytes, bytes - off);
                digests[c] = hash(base + off, static_cast<std::size_t>(len));
            }
        },
        /*serial_cutoff=*/2);
    return hash(digests.data(), digests.size() * sizeof(std::uint64_t));
}

} // namespace

std::uint64_t
xxh64(const void *data, std::size_t bytes, std::uint64_t seed)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    const unsigned char *const end = p + bytes;
    std::uint64_t h;
    if (bytes >= 32) {
        std::uint64_t v[4] = {seed + kPrime1 + kPrime2, seed + kPrime2,
                              seed, seed - kPrime1};
        for (; end - p >= 32; p += 32)
            for (int lane = 0; lane < 4; ++lane)
                v[lane] = xxh_round(
                    v[lane], read_le<std::uint64_t>(p + 8 * lane));
        h = std::rotl(v[0], 1) + std::rotl(v[1], 7) +
            std::rotl(v[2], 12) + std::rotl(v[3], 18);
        for (std::uint64_t acc : v)
            h = xxh_merge(h, acc);
    } else {
        h = seed + kPrime5;
    }
    h += bytes;
    for (; end - p >= 8; p += 8)
        h = std::rotl(h ^ xxh_round(0, read_le<std::uint64_t>(p)), 27) *
                kPrime1 +
            kPrime4;
    if (end - p >= 4) {
        h = std::rotl(h ^ read_le<std::uint32_t>(p) * kPrime1, 23) *
                kPrime2 +
            kPrime3;
        p += 4;
    }
    for (; p < end; ++p)
        h = std::rotl(h ^ *p * kPrime5, 11) * kPrime1;
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
}

std::uint64_t
fgnb_payload_checksum(std::uint32_t version, const void *payload,
                      std::uint64_t bytes, unsigned threads)
{
    const unsigned char *base =
        static_cast<const unsigned char *>(payload);
    switch (version) {
      case kGraphFileVersion:
        return fnv1a64(base, static_cast<std::size_t>(bytes));
      case kGraphFileVersionChunked:
        return chunked_checksum(
            base, bytes, kChecksumChunkBytes, threads,
            [](const void *p, std::size_t n) { return fnv1a64(p, n); });
      case kGraphFileVersionXxh64:
        return chunked_checksum(
            base, bytes, kXxh64ChunkBytes, threads,
            [](const void *p, std::size_t n) { return xxh64(p, n); });
      default:
        throw std::invalid_argument("fgnb_payload_checksum: unknown "
                                    "format version " +
                                    std::to_string(version));
    }
}

} // namespace io
} // namespace flowgnn
