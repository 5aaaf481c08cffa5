/**
 * @file
 * The FGNB on-disk layout, factored out of the loader so the
 * stream-reader (GraphFile::load) and the mmap view (io::GraphView)
 * validate one header the same way. The full specification lives in
 * docs/DESIGN.md; this header is the executable form of it.
 *
 * Versions:
 *  - v1: payload_checksum is FNV-1a-64 over the whole payload, one
 *    linear pass.
 *  - v2: the payload is divided into 64 MiB chunks, each chunk gets an
 *    FNV-1a-64 digest, and payload_checksum is FNV-1a-64 over the
 *    concatenated little-endian digests. Same header, same sections —
 *    only the checksum definition changes, which lets a reader verify
 *    chunks on all host cores instead of one.
 *  - v3: the same scheme with 1 MiB chunks and XXH64 (seed 0) for both
 *    the chunk digests and the fold. A graph of tens of MB spans tens
 *    of chunks, so every core takes a share, and XXH64's four 8-byte
 *    lanes run near memory speed where FNV-1a is one serial per-byte
 *    chain. Neither hash defends against a hostile file; the endpoint
 *    range checks do that.
 */
#ifndef FLOWGNN_IO_FGNB_LAYOUT_H
#define FLOWGNN_IO_FGNB_LAYOUT_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "io/graph_file.h"

namespace flowgnn {
namespace io {

/** FGNB v2: chunked payload checksum (parallel-verifiable). */
inline constexpr std::uint32_t kGraphFileVersionChunked = 2;

/** v2 checksum chunk size. Fixed by the format: changing it changes
 * every v2 checksum. */
inline constexpr std::uint64_t kChecksumChunkBytes = 64ull << 20;

/** FGNB v3: 1 MiB-chunked XXH64 payload checksum. */
inline constexpr std::uint32_t kGraphFileVersionXxh64 = 3;

/** v3 checksum chunk size, fixed by the format like v2's. */
inline constexpr std::uint64_t kXxh64ChunkBytes = 1ull << 20;

/**
 * The fixed 88-byte FGNB header, shared by every version. Every field is
 * little-endian; reserved words are written as zero and ignored on
 * read (the version-bump escape hatch for additions that do not
 * change section layout).
 */
struct FgnbHeader {
    std::uint32_t magic = kGraphFileMagic;
    std::uint32_t version = kGraphFileVersion;
    std::uint32_t header_bytes = sizeof(FgnbHeader);
    std::uint32_t flags = 0;
    std::uint64_t num_nodes = 0;
    std::uint64_t num_edges = 0;
    std::uint64_t node_dim = 0;
    std::uint64_t edge_dim = 0;
    std::uint64_t num_pool_nodes = 0;
    float label = 0.0f;
    std::uint32_t reserved0 = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t payload_checksum = 0;
    std::uint64_t reserved1 = 0;
};
static_assert(sizeof(FgnbHeader) == 88, "FGNB header is 88 bytes");

/**
 * Upper bound on feature dims the format accepts (per row, floats).
 * Real models use 16-100; the bound exists so a hostile header cannot
 * pick dims whose num_nodes * dim * 4 product wraps uint64 and sneaks
 * a zero payload_bytes past the size/checksum checks while Matrix
 * under-allocates (rows() would lie about the backing store).
 */
inline constexpr std::uint64_t kMaxFeatureDim = 1u << 20;

/** Throws GraphFileError("graph file '<path>': <reason>"). */
[[noreturn]] void fgnb_fail(const std::string &path,
                            const std::string &reason);

/**
 * Thread-safe strerror: io error paths run on replica/die/parallel
 * worker threads, where std::strerror's shared static buffer is a
 * data race (clang-tidy concurrency-mt-unsafe). Wraps strerror_r.
 */
std::string errno_message(int err);

/** Payload section sizes implied by a header, in emission order.
 * Never overflows: fgnb_validate_header has bounded num_nodes /
 * num_edges to 2^32 and dims to kMaxFeatureDim, so every term fits in
 * 2^55. */
std::uint64_t fgnb_expected_payload_bytes(const FgnbHeader &h);

/**
 * Full header validation against the actual file size, shared by the
 * stream loader and GraphView. `file_bytes` is the file's true 64-bit
 * size (from ftello or fstat — NOT a 32-bit ftell, which is exactly
 * the >=2 GiB misdiagnosis this seam exists to prevent and to unit
 * test without a multi-GiB file). Checks, in order: version (1-3),
 * header_bytes, id-space bounds, pool-node bound, feature-dim bounds,
 * flag/dim agreement, payload_bytes vs section flags, and file_bytes
 * == header + payload (truncation / trailing bytes). Magic and
 * short-header checks stay with the caller, which knows how many
 * header bytes it actually obtained. Throws GraphFileError on any
 * failure.
 */
void fgnb_validate_header(const FgnbHeader &h, std::uint64_t file_bytes,
                          const std::string &path);

/** XXH64 of a byte range (the reference algorithm, little-endian
 * reads): the v3 chunk digest and fold. */
std::uint64_t xxh64(const void *data, std::size_t bytes,
                    std::uint64_t seed = 0);

/**
 * The payload checksum of format `version` (1-3; std::invalid_argument
 * otherwise). v1 is one linear FNV-1a-64 pass. v2 and v3 hash fixed
 * chunks (v2: 64 MiB, FNV-1a-64; v3: 1 MiB, XXH64 seed 0; the last
 * chunk may be shorter) in parallel (threads 0 = all host cores) and
 * fold the little-endian chunk digests, in chunk order, with the same
 * hash. The result is thread-count independent by construction. An
 * empty payload folds zero digests: the hash of no bytes.
 */
std::uint64_t fgnb_payload_checksum(std::uint32_t version,
                                    const void *payload,
                                    std::uint64_t bytes,
                                    unsigned threads = 0);

} // namespace io
} // namespace flowgnn

#endif // FLOWGNN_IO_FGNB_LAYOUT_H
