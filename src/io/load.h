/**
 * @file
 * flowgnn::io — one call from a path on disk to a runnable
 * GraphSample.
 *
 * load_graph_sample() detects the format (FGNB binary by magic, OGB
 * CSV by the path being a directory, SNAP text otherwise), parses or
 * bulk-loads the graph, and attaches features: the ones stored in the
 * file when present, otherwise deterministic Gaussian features
 * generated from LoadOptions (the same N(0, 0.5) distribution every
 * synthetic workload in the repo uses). The result is an ordinary
 * GraphSample — Engine, ShardedEngine, and pool jobs
 * accept it unchanged; nothing downstream knows the graph came from
 * storage.
 */
#ifndef FLOWGNN_IO_LOAD_H
#define FLOWGNN_IO_LOAD_H

#include <string>

#include "io/edge_list.h"
#include "io/graph_file.h"

namespace flowgnn {

/** On-disk graph formats understood by load_graph_sample. */
enum class GraphFileFormat {
    kAuto,     ///< sniff: directory -> OGB CSV, FGNB magic -> binary,
               ///< anything else -> SNAP text
    kBinary,   ///< FGNB (io/graph_file.h)
    kSnapText, ///< whitespace `u v` lines, `#`/`%` comments
    kOgbCsv,   ///< directory with edge.csv (+ num-node-list.csv)
};

/** Human-readable format name. */
const char *graph_file_format_name(GraphFileFormat format);

/**
 * Resolves kAuto against the filesystem: directories are OGB CSV,
 * files opening with the FGNB magic are binary, everything else is
 * SNAP text. Throws GraphFileError when the path does not exist.
 */
GraphFileFormat detect_graph_format(const std::string &path);

/** How load_graph_sample turns a parsed graph into a GraphSample. */
struct LoadOptions {
    GraphFileFormat format = GraphFileFormat::kAuto;
    /**
     * Node-feature width when the file stores none. Generated
     * features are deterministic in (feature_seed, node_dim) and
     * independent of the format the graph arrived in.
     */
    std::size_t node_dim = 16;
    std::uint64_t feature_seed = 0x5EED;
    /**
     * Append reverse edges after parsing (text formats only — SNAP
     * files for undirected graphs usually list each edge once; FGNB
     * files store exactly the edge list they were given).
     */
    bool symmetrize = false;
    /** Explicit node count for the text formats (see EdgeListOptions). */
    NodeId num_nodes = 0;
};

/**
 * Loads `path` into a runnable sample. Binary files contribute
 * whatever sections they carry (features, DGN field, degree
 * overrides, label); text formats contribute structure only. Missing
 * node features are generated per LoadOptions. Throws GraphFileError
 * on any parse or I/O failure, and on a 0-node result (an empty or
 * comment-only text file — almost always a wrong path or a wrong
 * format sniff, and never runnable downstream): "runnable" is this
 * function's contract, unlike the raw parsers, which happily return
 * empty graphs.
 */
GraphSample load_graph_sample(const std::string &path,
                              const LoadOptions &options = {});

} // namespace flowgnn

#endif // FLOWGNN_IO_LOAD_H
