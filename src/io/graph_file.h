/**
 * @file
 * flowgnn::io — the FGNB on-disk binary graph format.
 *
 * A GraphSample round-trips to disk losslessly: save() writes a fixed
 * little-endian header (magic + version + section flags + checksum)
 * followed by column-major payload sections (edge endpoints, then the
 * optional feature/degree sections), and load() reads it back with one
 * bulk read per section — the cheap-reload cache that makes repeated
 * bench/shard runs on a large parsed graph cost seconds instead of a
 * re-parse. The full format specification (header layout, endianness,
 * versioning policy) lives in docs/DESIGN.md.
 *
 * Every failure mode of a hostile or damaged file — wrong magic, an
 * unknown version, a header inconsistent with the file size
 * (truncation), edge endpoints >= num_nodes, a payload checksum
 * mismatch — is rejected with a GraphFileError naming the path and
 * the reason; no input may reach undefined behavior.
 */
#ifndef FLOWGNN_IO_GRAPH_FILE_H
#define FLOWGNN_IO_GRAPH_FILE_H

#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/sample.h"

namespace flowgnn {

/** Any io-layer failure: unopenable path, malformed or truncated
 * file, out-of-range ids, checksum mismatch. what() always includes
 * the offending path. */
class GraphFileError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

namespace io {

/** First four bytes of every FGNB file: "FGNB". */
inline constexpr std::uint32_t kGraphFileMagic = 0x424E4746u;
/** Original format version: linear FNV-1a payload checksum. Readers
 * accept v1, v2 and v3 (see io/fgnb_layout.h for the chunked-checksum
 * specs); the writer defaults to v3. */
inline constexpr std::uint32_t kGraphFileVersion = 1;

/** Section-presence bits in the header's flags word. The two degree
 * overrides are independent sections: GraphSample allows either
 * vector alone (empty = "use structural degrees"), and the format
 * must round-trip exactly that. */
enum GraphFileFlags : std::uint32_t {
    kFlagNodeFeatures = 1u << 0,
    kFlagEdgeFeatures = 1u << 1,
    kFlagDgnField = 1u << 2,
    kFlagTrueInDeg = 1u << 3,
    kFlagTrueOutDeg = 1u << 4,
};

/**
 * FNV-1a 64-bit over a byte range — the payload checksum. Chosen for
 * being trivially specified (so the format needs no library) while
 * still catching the realistic failure: silent mid-file corruption or
 * a partial write that file-size checks alone would miss.
 */
std::uint64_t fnv1a64(const void *data, std::size_t bytes,
                      std::uint64_t seed = 0xCBF29CE484222325ull);

} // namespace io

/** Writer knobs for GraphFile::save. */
struct GraphSaveOptions {
    /** Format version to emit: 3 (1 MiB-chunked XXH64 checksum,
     * default), 2 (64 MiB-chunked FNV-1a) or 1 (linear FNV-1a). */
    std::uint32_t version = 3;
    /** Host threads for the chunked checksums; 0 = all cores. */
    unsigned threads = 0;
};

/**
 * The FGNB binary cache of one GraphSample. Free functions rather
 * than a class: the file has no open state worth holding.
 */
struct GraphFile {
    /**
     * Writes `sample` to `path` (overwriting). Sections are emitted
     * for whichever optional parts the sample carries (node/edge
     * features, DGN field, true-degree overrides); edge endpoints and
     * the header scalars (label, num_pool_nodes) are always stored.
     * Defaults to format v3 (chunked checksum, computed in parallel
     * over the written file); pass {.version = 1} or {.version = 2}
     * for the older checksums. Throws GraphFileError on any I/O
     * failure.
     */
    static void save(const std::string &path, const GraphSample &sample,
                     const GraphSaveOptions &opts = {});

    /**
     * Reads a sample back, bit-identical to what save() was given —
     * any version. Throws GraphFileError on: unopenable path,
     * short/bad-magic/unknown-version header, header inconsistent
     * with the actual file size (truncated or padded), num_nodes
     * exceeding the 32-bit NodeId space, any edge endpoint >=
     * num_nodes, or a payload checksum mismatch. Implemented over
     * io::GraphView, so validation, checksum, and section copies run
     * on `threads` host cores (0 = all).
     */
    static GraphSample load(const std::string &path,
                            unsigned threads = 0);
};

} // namespace flowgnn

#endif // FLOWGNN_IO_GRAPH_FILE_H
