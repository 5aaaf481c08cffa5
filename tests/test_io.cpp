/**
 * @file
 * flowgnn::io test suite: FGNB round-trip fidelity, rejection of every
 * malformed-file class the loader promises to diagnose, the text
 * parsers' edge cases (comments, blank lines, CRLF, duplicates), and
 * the end-to-end check that a sharded run from a file on disk is
 * bit-identical to the in-memory run of the same graph.
 */
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/dataset.h"
#include "ghost/ghost_engine.h"
#include "graph/generators.h"
#include "io/edge_list.h"
#include "io/fgnb_layout.h"
#include "io/graph_file.h"
#include "io/load.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "testing_util.h"

namespace flowgnn {
namespace {

namespace fs = std::filesystem;

/** Per-test scratch directory, removed on destruction. */
class TempDir
{
  public:
    TempDir()
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::temp_directory_path() /
               (std::string("flowgnn_io_") + info->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    ~TempDir() { fs::remove_all(dir_); }

    std::string
    path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

  private:
    fs::path dir_;
};

void
write_text(const std::string &path, const std::string &content)
{
    std::ofstream os(path, std::ios::binary);
    os << content;
}

std::vector<char>
read_bytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(is),
                             std::istreambuf_iterator<char>());
}

void
write_bytes(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

void
expect_load_error(const std::string &path, const std::string &needle)
{
    try {
        GraphFile::load(path);
        FAIL() << "expected GraphFileError containing '" << needle
               << "'";
    } catch (const GraphFileError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "actual error: " << e.what();
    }
}

/** A sample exercising every optional FGNB section. */
GraphSample
make_full_sample()
{
    GraphSample s = testing::make_random_sample(
        testing::make_random_graph(2, 60, 0xD15C), 12, 3, 0xD15C);
    s.label = 0.625f;
    s.num_pool_nodes = 58;
    s.dgn_field.assign(s.graph.num_nodes, 0.0f);
    for (NodeId n = 0; n < s.graph.num_nodes; ++n)
        s.dgn_field[n] = static_cast<float>(n) * 0.25f;
    s.true_in_deg = s.graph.in_degrees();
    s.true_out_deg = s.graph.out_degrees();
    return s;
}

void
expect_bit_identical(const GraphSample &a, const GraphSample &b)
{
    ASSERT_EQ(a.graph.num_nodes, b.graph.num_nodes);
    ASSERT_EQ(a.graph.edges.size(), b.graph.edges.size());
    for (std::size_t i = 0; i < a.graph.edges.size(); ++i)
        ASSERT_TRUE(a.graph.edges[i] == b.graph.edges[i]) << i;
    ASSERT_EQ(a.node_features.rows(), b.node_features.rows());
    ASSERT_EQ(a.node_features.cols(), b.node_features.cols());
    EXPECT_EQ(max_abs_diff(a.node_features, b.node_features), 0.0f);
    ASSERT_EQ(a.edge_features.cols(), b.edge_features.cols());
    if (a.edge_features.cols() > 0) {
        ASSERT_EQ(a.edge_features.rows(), b.edge_features.rows());
        EXPECT_EQ(max_abs_diff(a.edge_features, b.edge_features), 0.0f);
    }
    EXPECT_EQ(a.dgn_field, b.dgn_field);
    EXPECT_EQ(a.true_in_deg, b.true_in_deg);
    EXPECT_EQ(a.true_out_deg, b.true_out_deg);
    EXPECT_EQ(a.num_pool_nodes, b.num_pool_nodes);
    EXPECT_EQ(a.label, b.label);
}

// ---- FGNB round trips -------------------------------------------------

TEST(GraphFileTest, RoundTripAllSections)
{
    TempDir tmp;
    GraphSample s = make_full_sample();
    GraphFile::save(tmp.path("g.fgnb"), s);
    GraphSample loaded = GraphFile::load(tmp.path("g.fgnb"));
    EXPECT_TRUE(loaded.consistent());
    expect_bit_identical(s, loaded);
}

TEST(GraphFileTest, RoundTripStructureOnly)
{
    TempDir tmp;
    GraphSample s;
    s.graph = make_ring_lattice(500, 2);
    s.node_features = Matrix(500, 0);
    GraphFile::save(tmp.path("g.fgnb"), s);
    GraphSample loaded = GraphFile::load(tmp.path("g.fgnb"));
    EXPECT_TRUE(loaded.consistent());
    expect_bit_identical(s, loaded);
}

TEST(GraphFileTest, RoundTripOneSidedDegreeOverrides)
{
    // GraphSample allows either degree vector alone (empty = use
    // structural degrees); the two sections are independent flags and
    // must round-trip exactly, not as a pair.
    TempDir tmp;
    GraphSample out_only = testing::make_random_sample(
        testing::make_random_graph(0, 20, 0xDE9), 4, 0, 0xDE9);
    out_only.true_out_deg = out_only.graph.out_degrees();
    GraphFile::save(tmp.path("out.fgnb"), out_only);
    expect_bit_identical(out_only, GraphFile::load(tmp.path("out.fgnb")));

    GraphSample in_only = out_only;
    in_only.true_out_deg.clear();
    in_only.true_in_deg = in_only.graph.in_degrees();
    GraphFile::save(tmp.path("in.fgnb"), in_only);
    expect_bit_identical(in_only, GraphFile::load(tmp.path("in.fgnb")));
}

TEST(GraphFileTest, RoundTripEmptyGraph)
{
    TempDir tmp;
    GraphSample s; // 0 nodes, 0 edges
    GraphFile::save(tmp.path("g.fgnb"), s);
    GraphSample loaded = GraphFile::load(tmp.path("g.fgnb"));
    EXPECT_EQ(loaded.num_nodes(), 0u);
    EXPECT_EQ(loaded.num_edges(), 0u);
    EXPECT_TRUE(loaded.consistent());
}

TEST(GraphFileTest, SaveRejectsInconsistentSample)
{
    TempDir tmp;
    GraphSample s;
    s.graph.num_nodes = 4;
    s.graph.edges.push_back({1, 9}); // endpoint out of range
    s.node_features = Matrix(4, 2);
    EXPECT_THROW(GraphFile::save(tmp.path("g.fgnb"), s),
                 GraphFileError);
}

// ---- Malformed-file rejection ----------------------------------------

TEST(GraphFileTest, RejectsMissingAndEmptyAndShortFiles)
{
    TempDir tmp;
    expect_load_error(tmp.path("nope.fgnb"), "cannot open");
    write_text(tmp.path("empty.fgnb"), "");
    expect_load_error(tmp.path("empty.fgnb"), "bad magic");
    // Right magic but the header is cut off.
    write_text(tmp.path("short.fgnb"), "FGNB\x01");
    expect_load_error(tmp.path("short.fgnb"), "truncated header");
}

TEST(GraphFileTest, RejectsBadMagic)
{
    TempDir tmp;
    write_text(tmp.path("bad.fgnb"), "# this is a text file\n1 2\n");
    expect_load_error(tmp.path("bad.fgnb"), "bad magic");
}

TEST(GraphFileTest, RejectsWrongVersion)
{
    TempDir tmp;
    GraphFile::save(tmp.path("g.fgnb"), make_full_sample());
    for (char version : {4, 99}) {
        std::vector<char> bytes = read_bytes(tmp.path("g.fgnb"));
        bytes[4] = version; // version field (offset 4, little-endian)
        write_bytes(tmp.path("bad.fgnb"), bytes);
        expect_load_error(tmp.path("bad.fgnb"),
                          "unsupported format version " +
                              std::to_string(version));
    }
}

TEST(GraphFileTest, RejectsTruncatedPayload)
{
    TempDir tmp;
    GraphFile::save(tmp.path("g.fgnb"), make_full_sample());
    std::vector<char> bytes = read_bytes(tmp.path("g.fgnb"));
    bytes.resize(bytes.size() - 7);
    write_bytes(tmp.path("g.fgnb"), bytes);
    expect_load_error(tmp.path("g.fgnb"), "truncated");
}

TEST(GraphFileTest, RejectsTrailingBytes)
{
    TempDir tmp;
    GraphFile::save(tmp.path("g.fgnb"), make_full_sample());
    std::vector<char> bytes = read_bytes(tmp.path("g.fgnb"));
    bytes.push_back('x');
    write_bytes(tmp.path("g.fgnb"), bytes);
    expect_load_error(tmp.path("g.fgnb"), "trailing bytes");
}

TEST(GraphFileTest, RejectsNodeIdOverflow)
{
    TempDir tmp;
    // Hand-built header claiming 2^33 nodes: must be rejected for
    // overflowing the 32-bit NodeId space before anything is sized
    // from it.
    std::vector<char> bytes(88, 0);
    const std::uint32_t magic = io::kGraphFileMagic, version = 1,
                        header_bytes = 88;
    const std::uint64_t nodes = 1ull << 33;
    std::memcpy(bytes.data() + 0, &magic, 4);
    std::memcpy(bytes.data() + 4, &version, 4);
    std::memcpy(bytes.data() + 8, &header_bytes, 4);
    std::memcpy(bytes.data() + 16, &nodes, 8);
    write_bytes(tmp.path("huge.fgnb"), bytes);
    expect_load_error(tmp.path("huge.fgnb"),
                      "overflows the 32-bit node id space");
}

TEST(GraphFileTest, RejectsImplausibleFeatureDims)
{
    TempDir tmp;
    // Hostile header: num_nodes * node_dim * 4 wraps uint64 to 0, so
    // without a dim bound the payload-size and checksum checks pass
    // on an empty payload while Matrix under-allocates (UB on first
    // access downstream).
    std::vector<char> bytes(88, 0);
    const std::uint32_t magic = io::kGraphFileMagic, version = 1,
                        header_bytes = 88, flags = io::kFlagNodeFeatures;
    const std::uint64_t nodes = 1ull << 31, dim = 1ull << 33;
    const std::uint64_t checksum = 0xCBF29CE484222325ull; // FNV seed
    std::memcpy(bytes.data() + 0, &magic, 4);
    std::memcpy(bytes.data() + 4, &version, 4);
    std::memcpy(bytes.data() + 8, &header_bytes, 4);
    std::memcpy(bytes.data() + 12, &flags, 4);
    std::memcpy(bytes.data() + 16, &nodes, 8);
    std::memcpy(bytes.data() + 32, &dim, 8);
    std::memcpy(bytes.data() + 72, &checksum, 8);
    write_bytes(tmp.path("wrap.fgnb"), bytes);
    expect_load_error(tmp.path("wrap.fgnb"),
                      "implausible feature dimension");
}

TEST(GraphFileTest, RejectsEdgeEndpointOutOfRange)
{
    TempDir tmp;
    GraphSample s;
    s.graph.num_nodes = 8;
    s.graph.edges = {{0, 1}, {2, 3}, {4, 5}};
    s.node_features = Matrix(8, 0);
    GraphFile::save(tmp.path("g.fgnb"), s);
    std::vector<char> bytes = read_bytes(tmp.path("g.fgnb"));
    // Patch edge 1's src (payload starts at 88; src column first).
    const std::uint32_t bogus = 200;
    std::memcpy(bytes.data() + 88 + 1 * sizeof(std::uint32_t), &bogus,
                sizeof bogus);
    write_bytes(tmp.path("g.fgnb"), bytes);
    expect_load_error(tmp.path("g.fgnb"), "out of range");
}

TEST(GraphFileTest, RejectsCorruptPayload)
{
    TempDir tmp;
    GraphFile::save(tmp.path("g.fgnb"), make_full_sample());
    std::vector<char> bytes = read_bytes(tmp.path("g.fgnb"));
    bytes.back() ^= 0x40; // flip a bit in the last payload byte
    write_bytes(tmp.path("g.fgnb"), bytes);
    expect_load_error(tmp.path("g.fgnb"), "checksum mismatch");
}

TEST(GraphFileTest, WriterEmitsRequestedVersion)
{
    // The writer defaults to v3 (1 MiB-chunked XXH64); {.version = 1}
    // and {.version = 2} keep emitting the older checksums. All must
    // reload bit-identically, and the version byte (offset 4) is
    // pinned so a default change cannot slip through unnoticed.
    TempDir tmp;
    GraphSample s = make_full_sample();
    GraphFile::save(tmp.path("v3.fgnb"), s);
    GraphFile::save(tmp.path("v2.fgnb"), s, {.version = 2});
    GraphFile::save(tmp.path("v1.fgnb"), s, {.version = 1});
    EXPECT_EQ(read_bytes(tmp.path("v3.fgnb"))[4], 3);
    EXPECT_EQ(read_bytes(tmp.path("v2.fgnb"))[4], 2);
    EXPECT_EQ(read_bytes(tmp.path("v1.fgnb"))[4], 1);
    expect_bit_identical(s, GraphFile::load(tmp.path("v3.fgnb")));
    expect_bit_identical(s, GraphFile::load(tmp.path("v2.fgnb")));
    expect_bit_identical(s, GraphFile::load(tmp.path("v1.fgnb")));
    for (std::uint32_t bad : {0u, 4u})
        EXPECT_THROW(GraphFile::save(tmp.path("bad.fgnb"), s,
                                     {.version = bad}),
                     GraphFileError);
}

TEST(GraphFileTest, LoadIsThreadCountInvariant)
{
    TempDir tmp;
    GraphSample s = make_full_sample();
    GraphFile::save(tmp.path("g.fgnb"), s);
    for (unsigned t : {1u, 2u, 4u})
        expect_bit_identical(s, GraphFile::load(tmp.path("g.fgnb"), t));
}

// ---- SNAP text parser -------------------------------------------------

TEST(EdgeListTest, RejectsNewlineFreeFileInsteadOfBuffering)
{
    // Regression: the chunk parser used to append partial lines to its
    // carry buffer without bound, so a binary or newline-free file
    // (typically a wrong path handed to --graph-file) accumulated the
    // whole input in RAM before failing on the first "line". The carry
    // is now capped at 1 MiB and the failure names line 1.
    TempDir tmp;
    std::string blob(2u << 20, '7'); // 2 MiB, not a single newline
    write_text(tmp.path("blob.txt"), blob);
    try {
        parse_snap_edge_list(tmp.path("blob.txt"));
        FAIL() << "expected GraphFileError";
    } catch (const GraphFileError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 1"), std::string::npos) << what;
        EXPECT_NE(what.find("exceeds"), std::string::npos) << what;
    }
}

TEST(EdgeListTest, SnapParsesCommentsBlanksCrlfAndDuplicates)
{
    TempDir tmp;
    write_text(tmp.path("g.txt"),
               "# SNAP-style comment\n"
               "% KONECT-style comment\r\n"
               "\n"
               "0 1\n"
               "1\t2\r\n"
               "  2   3  \n"
               "0 1\n"   // duplicate, kept
               "3 3\n"   // self-loop, kept
               "\r\n"
               "4 0"); // no trailing newline
    CooGraph g = parse_snap_edge_list(tmp.path("g.txt"));
    EXPECT_EQ(g.num_nodes, 5u);
    ASSERT_EQ(g.num_edges(), 6u);
    EXPECT_TRUE(g.edges[0] == (Edge{0, 1}));
    EXPECT_TRUE(g.edges[1] == (Edge{1, 2}));
    EXPECT_TRUE(g.edges[2] == (Edge{2, 3}));
    EXPECT_TRUE(g.edges[3] == (Edge{0, 1}));
    EXPECT_TRUE(g.edges[4] == (Edge{3, 3}));
    EXPECT_TRUE(g.edges[5] == (Edge{4, 0}));
    EXPECT_TRUE(g.valid());
}

TEST(EdgeListTest, SnapExplicitNodeCountAndOverflow)
{
    TempDir tmp;
    write_text(tmp.path("g.txt"), "0 1\n1 2\n");
    EdgeListOptions opts;
    opts.num_nodes = 10; // trailing isolated nodes
    EXPECT_EQ(parse_snap_edge_list(tmp.path("g.txt"), opts).num_nodes,
              10u);

    opts.num_nodes = 2; // id 2 on line 2 is now out of range
    try {
        parse_snap_edge_list(tmp.path("g.txt"), opts);
        FAIL() << "expected GraphFileError";
    } catch (const GraphFileError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("declared node count"),
                  std::string::npos)
            << e.what();
    }
}

TEST(EdgeListTest, SnapRejectsMalformedLines)
{
    TempDir tmp;
    write_text(tmp.path("alpha.txt"), "0 1\nx 2\n");
    EXPECT_THROW(parse_snap_edge_list(tmp.path("alpha.txt")),
                 GraphFileError);
    write_text(tmp.path("lonely.txt"), "0\n");
    EXPECT_THROW(parse_snap_edge_list(tmp.path("lonely.txt")),
                 GraphFileError);
    write_text(tmp.path("junk.txt"), "0 1 2\n");
    EXPECT_THROW(parse_snap_edge_list(tmp.path("junk.txt")),
                 GraphFileError);
    write_text(tmp.path("big.txt"), "0 4294967296\n"); // 2^32
    EXPECT_THROW(parse_snap_edge_list(tmp.path("big.txt")),
                 GraphFileError);
    // The top 32-bit value is reserved too: num_nodes = max id + 1
    // must itself fit in 32 bits (it would wrap to 0).
    write_text(tmp.path("wrap.txt"), "0 4294967295\n");
    EXPECT_THROW(parse_snap_edge_list(tmp.path("wrap.txt")),
                 GraphFileError);
    // Trailing comments after the pair are fine.
    write_text(tmp.path("ok.txt"), "0 1 # weight-free\n");
    EXPECT_EQ(parse_snap_edge_list(tmp.path("ok.txt")).num_edges(), 1u);
}

TEST(EdgeListTest, SnapEmptyAndCommentOnlyFiles)
{
    TempDir tmp;
    write_text(tmp.path("empty.txt"), "");
    CooGraph g = parse_snap_edge_list(tmp.path("empty.txt"));
    EXPECT_EQ(g.num_nodes, 0u);
    EXPECT_EQ(g.num_edges(), 0u);
    write_text(tmp.path("comments.txt"), "# nothing\n% here\n");
    g = parse_snap_edge_list(tmp.path("comments.txt"));
    EXPECT_EQ(g.num_nodes, 0u);
    EXPECT_EQ(g.num_edges(), 0u);
}

/** A line split across the chunked reader's buffer boundary must
 * parse exactly like a small file (regression for the carry path). */
TEST(EdgeListTest, SnapLargeFileCrossesChunkBoundary)
{
    TempDir tmp;
    std::string content;
    const std::size_t lines = 200000; // ~2.3 MB, > one 1 MiB chunk
    for (std::size_t i = 0; i < lines; ++i) {
        content += std::to_string(i % 1000);
        content += ' ';
        content += std::to_string((i * 7 + 1) % 1000);
        content += '\n';
    }
    write_text(tmp.path("big.txt"), content);
    CooGraph g = parse_snap_edge_list(tmp.path("big.txt"));
    ASSERT_EQ(g.num_edges(), lines);
    EXPECT_EQ(g.num_nodes, 1000u);
    for (std::size_t i : {std::size_t(0), lines / 2, lines - 1}) {
        EXPECT_EQ(g.edges[i].src, i % 1000);
        EXPECT_EQ(g.edges[i].dst, (i * 7 + 1) % 1000);
    }
}

// ---- OGB CSV parser ---------------------------------------------------

TEST(EdgeListTest, OgbCsvWithNodeList)
{
    TempDir tmp;
    write_text(tmp.path("edge.csv"), "0,1\r\n1,2\n2,0\n");
    // Node count larger than max id + 1: isolated trailing nodes.
    write_text(tmp.path("num-node-list.csv"), "7\n");
    CooGraph g = parse_ogb_csv(tmp.path(""));
    EXPECT_EQ(g.num_nodes, 7u);
    ASSERT_EQ(g.num_edges(), 3u);
    EXPECT_TRUE(g.edges[2] == (Edge{2, 0}));
}

TEST(EdgeListTest, OgbCsvWithoutNodeListDerivesCount)
{
    TempDir tmp;
    write_text(tmp.path("edge.csv"), "5,1\n1,2\n");
    EXPECT_EQ(parse_ogb_csv(tmp.path("")).num_nodes, 6u);
}

TEST(EdgeListTest, OgbCsvRejectsWhitespacePairInCsv)
{
    TempDir tmp;
    write_text(tmp.path("edge.csv"), "0 1\n");
    EXPECT_THROW(parse_ogb_csv(tmp.path("")), GraphFileError);
}

// ---- load_graph_sample ------------------------------------------------

TEST(LoadGraphSampleTest, DetectsAllFormats)
{
    TempDir tmp;
    GraphSample s;
    s.graph = make_ring_lattice(10, 1);
    s.node_features = Matrix(10, 0);
    GraphFile::save(tmp.path("g.fgnb"), s);
    write_text(tmp.path("g.txt"), "0 1\n");
    write_text(tmp.path("edge.csv"), "0,1\n");
    EXPECT_EQ(detect_graph_format(tmp.path("g.fgnb")),
              GraphFileFormat::kBinary);
    EXPECT_EQ(detect_graph_format(tmp.path("g.txt")),
              GraphFileFormat::kSnapText);
    EXPECT_EQ(detect_graph_format(tmp.path("")),
              GraphFileFormat::kOgbCsv);
    EXPECT_THROW(detect_graph_format(tmp.path("missing")),
                 GraphFileError);
}

TEST(LoadGraphSampleTest, GeneratesDeterministicFeatures)
{
    TempDir tmp;
    write_text(tmp.path("g.txt"), "0 1\n1 2\n2 0\n");
    LoadOptions load;
    load.node_dim = 8;
    GraphSample a = load_graph_sample(tmp.path("g.txt"), load);
    GraphSample b = load_graph_sample(tmp.path("g.txt"), load);
    EXPECT_TRUE(a.consistent());
    EXPECT_EQ(a.node_dim(), 8u);
    EXPECT_EQ(max_abs_diff(a.node_features, b.node_features), 0.0f);
    load.feature_seed ^= 1;
    GraphSample c = load_graph_sample(tmp.path("g.txt"), load);
    EXPECT_NE(max_abs_diff(a.node_features, c.node_features), 0.0f);
}

TEST(LoadGraphSampleTest, StoredFeaturesWinOverGenerated)
{
    TempDir tmp;
    GraphSample s = testing::make_random_sample(
        testing::make_random_graph(1, 30, 0xFACE), 6, 0, 0xFACE);
    GraphFile::save(tmp.path("g.fgnb"), s);
    LoadOptions load;
    load.node_dim = 99; // must be ignored: the file has features
    GraphSample loaded = load_graph_sample(tmp.path("g.fgnb"), load);
    EXPECT_EQ(loaded.node_dim(), 6u);
    EXPECT_EQ(max_abs_diff(loaded.node_features, s.node_features),
              0.0f);
}

TEST(LoadGraphSampleTest, RejectsZeroNodeResults)
{
    // The raw parsers return empty graphs; load_graph_sample promises
    // a *runnable* sample and must diagnose instead (an empty text
    // file is almost always a wrong path or a wrong format sniff).
    TempDir tmp;
    write_text(tmp.path("empty.txt"), "");
    write_text(tmp.path("comments.txt"), "# nothing here\n");
    for (const char *name : {"empty.txt", "comments.txt"}) {
        try {
            load_graph_sample(tmp.path(name), LoadOptions{});
            FAIL() << name;
        } catch (const GraphFileError &e) {
            EXPECT_NE(std::string(e.what()).find("contains no nodes"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(LoadGraphSampleTest, SymmetrizeAppendsReverseEdges)
{
    TempDir tmp;
    write_text(tmp.path("g.txt"), "0 1\n1 2\n");
    LoadOptions load;
    load.node_dim = 4;
    load.symmetrize = true;
    GraphSample s = load_graph_sample(tmp.path("g.txt"), load);
    ASSERT_EQ(s.num_edges(), 4u);
    EXPECT_TRUE(s.graph.edges[2] == (Edge{1, 0}));
    EXPECT_TRUE(s.graph.edges[3] == (Edge{2, 1}));
}

// ---- Sharded run from a file on disk ---------------------------------

/**
 * The differential case the subsystem exists for: parse a text edge
 * list, cache it as FGNB, reload, and verify the P=4 Fennel sharded
 * run of the reloaded sample is bit-identical to (a) the in-memory
 * engine run of the same sample and (b) the run of the never-saved
 * original.
 */
TEST(ShardedFromFileTest, FennelShardedRunBitIdenticalToInMemory)
{
    TempDir tmp;
    Rng rng(0x5CA1E);
    GraphSample original = testing::make_random_sample(
        make_barabasi_albert(2000, 4, rng), 8, 0, 0x5CA1E);

    GraphFile::save(tmp.path("ba.fgnb"), original);
    GraphSample loaded =
        load_graph_sample(tmp.path("ba.fgnb"), LoadOptions{});
    expect_bit_identical(original, loaded);

    Model model = make_model(ModelKind::kGcn16, loaded.node_dim(), 0);
    EngineConfig engine_cfg;
    engine_cfg.p_node = 1;
    ShardConfig shard_cfg;
    shard_cfg.num_shards = 4;
    shard_cfg.strategy = ShardStrategy::kFennel;

    ShardedRunResult from_disk =
        ShardedEngine(model, engine_cfg, shard_cfg).run(loaded);
    EXPECT_EQ(from_disk.shards.size(), 4u);

    RunResult in_memory = Engine(model, engine_cfg).run(loaded);
    EXPECT_EQ(max_abs_diff(from_disk.embeddings, in_memory.embeddings),
              0.0f);
    EXPECT_EQ(from_disk.prediction, in_memory.prediction);

    RunResult never_saved = Engine(model, engine_cfg).run(original);
    EXPECT_EQ(
        max_abs_diff(from_disk.embeddings, never_saved.embeddings),
        0.0f);
}

TEST(IoErrnoMessage, ProducesDistinctNonEmptyMessages)
{
    // Pins the strerror -> strerror_r fix: io error paths run on
    // parallel loader threads, where std::strerror's shared static
    // buffer is a data race.
    std::string enoent = io::errno_message(ENOENT);
    std::string eacces = io::errno_message(EACCES);
    EXPECT_FALSE(enoent.empty());
    EXPECT_FALSE(eacces.empty());
    EXPECT_NE(enoent, eacces);

    // Concurrent callers each get their own buffer: every thread must
    // observe the message for *its* errno value, never a neighbor's.
    std::vector<std::thread> threads;
    std::vector<std::string> got(8);
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&got, t] {
            int err = (t % 2 == 0) ? ENOENT : EACCES;
            for (int i = 0; i < 1000; ++i)
                got[static_cast<std::size_t>(t)] = io::errno_message(err);
        });
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < 8; ++t)
        EXPECT_EQ(got[static_cast<std::size_t>(t)],
                  (t % 2 == 0) ? enoent : eacces)
            << "thread " << t;
}

} // namespace
} // namespace flowgnn
