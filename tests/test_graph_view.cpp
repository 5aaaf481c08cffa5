/**
 * @file
 * Out-of-core suite: io::GraphView (mmap FGNB reader) against the
 * copying loader, the 64-bit-file-size header seam that fixes the
 * >= 2 GiB ftell bug, FGNB v1/v2/v3 coexistence and v3's chunked
 * XXH64 checksum, and the differential
 * contract of the parallel host hot paths — every GraphRef/SampleRef
 * overload at threads = 4 must be bit-identical to the serial
 * in-memory chain: assignments across all strategies, ghost plans,
 * and full modeled runs.
 */
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "ghost/ghost_engine.h"
#include "graph/partition.h"
#include "graph/streaming_partition.h"
#include "io/fgnb_layout.h"
#include "io/graph_view.h"
#include "io/load.h"
#include "tensor/ops.h"
#include "testing_util.h"

namespace flowgnn {
namespace {

namespace fs = std::filesystem;

constexpr ShardStrategy kAllStrategies[] = {
    ShardStrategy::kModulo,        ShardStrategy::kContiguous,
    ShardStrategy::kGreedyBalanced, ShardStrategy::kBfsContiguous,
    ShardStrategy::kLdg,           ShardStrategy::kFennel,
    ShardStrategy::kHdrf,
};

/** Per-test scratch directory, removed on destruction. */
class TempDir
{
  public:
    TempDir()
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::temp_directory_path() /
               (std::string("flowgnn_view_") + info->name());
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
expect_view_error(const std::string &path, const std::string &needle,
                  io::GraphViewOptions opts = {})
{
    try {
        io::GraphView view(path, opts);
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

/** Every mapped section must match the copying loader bit-for-bit. */
void
expect_view_matches_sample(const io::GraphView &view,
                           const GraphSample &s)
{
    ASSERT_EQ(view.num_nodes(), s.num_nodes());
    ASSERT_EQ(view.num_edges(), s.num_edges());
    ASSERT_EQ(view.node_dim(), s.node_dim());
    ASSERT_EQ(view.edge_dim(), s.edge_dim());
    EXPECT_EQ(view.num_pool_nodes(), s.num_pool_nodes);
    EXPECT_EQ(view.label(), s.label);
    for (std::size_t i = 0; i < s.num_edges(); ++i) {
        ASSERT_EQ(view.src()[i], s.graph.edges[i].src) << i;
        ASSERT_EQ(view.dst()[i], s.graph.edges[i].dst) << i;
    }
    if (s.node_dim() > 0) {
        ASSERT_NE(view.node_features(), nullptr);
        EXPECT_EQ(std::memcmp(view.node_features(),
                              s.node_features.data(),
                              sizeof(float) * std::size_t(s.num_nodes()) *
                                  s.node_dim()),
                  0);
    }
    if (s.edge_dim() > 0) {
        ASSERT_NE(view.edge_features(), nullptr);
        EXPECT_EQ(std::memcmp(view.edge_features(),
                              s.edge_features.data(),
                              sizeof(float) * s.num_edges() *
                                  s.edge_dim()),
                  0);
    }
    if (!s.dgn_field.empty()) {
        ASSERT_NE(view.dgn_field(), nullptr);
        EXPECT_EQ(std::memcmp(view.dgn_field(), s.dgn_field.data(),
                              sizeof(float) * s.dgn_field.size()),
                  0);
    } else {
        EXPECT_EQ(view.dgn_field(), nullptr);
    }
    if (!s.true_in_deg.empty()) {
        ASSERT_NE(view.true_in_deg(), nullptr);
        EXPECT_EQ(std::memcmp(view.true_in_deg(), s.true_in_deg.data(),
                              sizeof(std::uint32_t) *
                                  s.true_in_deg.size()),
                  0);
    }
    if (!s.true_out_deg.empty()) {
        ASSERT_NE(view.true_out_deg(), nullptr);
        EXPECT_EQ(std::memcmp(view.true_out_deg(),
                              s.true_out_deg.data(),
                              sizeof(std::uint32_t) *
                                  s.true_out_deg.size()),
                  0);
    }
}

// ---- GraphView vs the copying loader ---------------------------------

TEST(GraphViewTest, MappedSectionsMatchCopyingLoader)
{
    TempDir tmp;
    GraphSample s = make_full_sample();
    GraphFile::save(tmp.path("g.fgnb"), s);

    io::GraphView view(tmp.path("g.fgnb"));
    EXPECT_EQ(view.version(), io::kGraphFileVersionXxh64);
    expect_view_matches_sample(view, s);

    SampleRef ref = view.sample();
    EXPECT_TRUE(ref.consistent());
    EXPECT_EQ(ref.num_nodes(), s.num_nodes());
    EXPECT_EQ(ref.node_dim, s.node_dim());
    EXPECT_EQ(ref.edge_dim, s.edge_dim());
}

TEST(GraphViewTest, NonFiniteMappedFeaturesThrowAtTheKernel)
{
    // The checksum covers a file's bytes, not what they mean: a NaN
    // feature maps unchanged, and the functional kernel rejects it by
    // row, as it does an in-memory sample's.
    TempDir tmp;
    GraphSample s = make_full_sample();
    s.node_features(7, 4) = std::numeric_limits<float>::quiet_NaN();
    GraphFile::save(tmp.path("nan.fgnb"), s);
    io::GraphView view(tmp.path("nan.fgnb"));
    const Model model = make_model(ModelKind::kGin, 12, 3);
    RunWorkspace ws;
    try {
        Engine(model).run_prepared(view.sample(), {}, ws);
        ADD_FAILURE() << "a NaN feature ran";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("node-feature row 7 "),
                  std::string::npos)
            << e.what();
    }
}

TEST(GraphViewTest, ReadsEveryFormatVersion)
{
    TempDir tmp;
    GraphSample s = make_full_sample();
    std::vector<std::vector<char>> files;
    for (std::uint32_t version : {1u, 2u, 3u}) {
        const std::string path =
            tmp.path("v" + std::to_string(version) + ".fgnb");
        GraphFile::save(path, s, {.version = version});
        io::GraphView v(path);
        EXPECT_EQ(v.version(), version);
        expect_view_matches_sample(v, s);
        files.push_back(read_bytes(path));
    }

    // The encodings differ only in the checksum definition: the
    // payload bytes themselves are identical.
    for (const std::vector<char> &b : files) {
        ASSERT_EQ(b.size(), files[0].size());
        EXPECT_EQ(std::memcmp(b.data() + 88, files[0].data() + 88,
                              b.size() - 88),
                  0);
    }
}

TEST(GraphViewTest, RejectsCorruptAndTruncatedFiles)
{
    TempDir tmp;
    GraphSample s = make_full_sample();
    for (std::uint32_t version : {1u, 2u, 3u}) {
        const std::string base =
            "v" + std::to_string(version) + ".fgnb";
        GraphFile::save(tmp.path(base), s, {.version = version});
        std::vector<char> bytes = read_bytes(tmp.path(base));

        std::vector<char> corrupt = bytes;
        corrupt.back() ^= 0x40; // deep in the last payload section
        write_bytes(tmp.path("corrupt.fgnb"), corrupt);
        expect_view_error(tmp.path("corrupt.fgnb"),
                          "checksum mismatch");

        std::vector<char> cut(bytes.begin(), bytes.end() - 7);
        write_bytes(tmp.path("cut.fgnb"), cut);
        expect_view_error(tmp.path("cut.fgnb"), "truncated");

        // verify_checksum = false skips the payload pass (the reopen
        // fast path) but must still reject structural damage.
        io::GraphView unchecked(tmp.path("corrupt.fgnb"),
                                {.verify_checksum = false});
        EXPECT_EQ(unchecked.num_nodes(), s.num_nodes());
        expect_view_error(tmp.path("cut.fgnb"), "truncated",
                          {.verify_checksum = false});
    }
}

// ---- The >= 2 GiB loader-bug seam ------------------------------------

/**
 * Regression for the ftell loader bug: the old loader sized the file
 * with `long end = std::ftell(...)` — a 32-bit quantity on LP64-hostile
 * builds and a value that wraps through the int range via the
 * ftell/fseek contract — so any FGNB >= 2 GiB was misdiagnosed as
 * truncated. The validation seam takes the true 64-bit size; this
 * pins, without writing a multi-GiB file, that (a) a > 2 GiB header
 * validates against its true size and (b) the exact 32-bit-truncated
 * size the buggy loader produced is rejected, not silently accepted.
 */
TEST(GraphViewTest, HeaderValidationUses64BitFileSizes)
{
    io::FgnbHeader h;
    h.version = io::kGraphFileVersionChunked;
    h.num_nodes = 100000;
    h.num_edges = 600000000; // 8 bytes/edge -> 4.8 GB payload
    h.payload_bytes = io::fgnb_expected_payload_bytes(h);
    ASSERT_GT(h.payload_bytes, std::uint64_t(1) << 32);

    const std::uint64_t true_size = 88 + h.payload_bytes;
    EXPECT_NO_THROW(io::fgnb_validate_header(h, true_size, "big"));

    // What a 32-bit ftell would have reported for this file.
    const std::uint64_t wrapped =
        true_size & 0xFFFFFFFFull;
    ASSERT_NE(wrapped, true_size);
    EXPECT_THROW(io::fgnb_validate_header(h, wrapped, "big"),
                 GraphFileError);
    // And the other direction: a genuinely truncated big file is
    // still caught against 64-bit sizes.
    EXPECT_THROW(io::fgnb_validate_header(h, true_size - 1, "big"),
                 GraphFileError);
}

TEST(GraphViewTest, ChunkedChecksumIsThreadCountInvariant)
{
    // Spans several chunk boundaries of both chunked versions at a
    // test-friendly size: equal inputs hash equal for every thread
    // count, and the three definitions give three answers (so readers
    // cannot mix them up). The values are pinned: v1 and v2 are the
    // checksums every earlier writer stored, and v3 is XXH64 over the
    // XXH64 digests of four chunks (three of 1 MiB, one short).
    std::vector<unsigned char> payload(3 * (1u << 20) + 12345);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<unsigned char>(i * 2654435761u >> 13);
    const std::uint64_t pinned[] = {0xFD7E99C0653A3311ull,
                                    0x19769D9954FE9F86ull,
                                    0xD2634A84276D2E6Full};
    for (std::uint32_t version : {1u, 2u, 3u})
        for (unsigned t : {1u, 2u, 3u, 8u})
            EXPECT_EQ(io::fgnb_payload_checksum(version, payload.data(),
                                                payload.size(), t),
                      pinned[version - 1])
                << "v" << version << " threads " << t;
    EXPECT_EQ(pinned[0], io::fnv1a64(payload.data(), payload.size()));
    // An empty payload folds zero digests: the hash of no bytes.
    EXPECT_EQ(io::fgnb_payload_checksum(3, payload.data(), 0),
              io::xxh64(nullptr, 0));
    EXPECT_THROW(io::fgnb_payload_checksum(4, payload.data(), 1),
                 std::invalid_argument);
}

TEST(GraphViewTest, Xxh64MatchesTheReferenceVectors)
{
    EXPECT_EQ(io::xxh64("", 0), 0xEF46DB3751D8E999ull);
    EXPECT_EQ(io::xxh64("abc", 3), 0x44BC2CF5AD770999ull);
}

// ---- FGNB v3: 1 MiB-chunked XXH64 ------------------------------------

/** A plain sample whose payload is three full 1 MiB v3 chunks and a
 * short fourth, nearly all node features: the endpoint section ends
 * inside chunk 0, so damage past it reaches the checksum check. */
GraphSample
make_multi_chunk_sample()
{
    GraphSample s = testing::make_random_sample(
        testing::make_random_graph(2, 30000, 0x3C), 32, 0, 0x3C);
    s.graph.edges.resize(64);
    return s;
}

TEST(GraphViewV3Test, RejectsDamageInEveryChunk)
{
    TempDir tmp;
    const GraphSample s = make_multi_chunk_sample();
    GraphFile::save(tmp.path("g.fgnb"), s);
    const std::vector<char> bytes = read_bytes(tmp.path("g.fgnb"));
    const std::size_t payload = bytes.size() - 88;
    const std::size_t chunk = io::kXxh64ChunkBytes;
    ASSERT_EQ(payload / chunk, 3u);
    ASSERT_NE(payload % chunk, 0u) << "the last chunk must be short";
    ASSERT_LT(2 * s.num_edges() * sizeof(std::uint32_t), chunk / 2);
    EXPECT_NO_THROW(io::GraphView(tmp.path("g.fgnb"), {.threads = 3}));

    auto expect_rejected = [&](const std::vector<char> &damaged,
                               const std::string &what) {
        SCOPED_TRACE(what);
        write_bytes(tmp.path("bad.fgnb"), damaged);
        for (unsigned t : {1u, 3u})
            expect_view_error(tmp.path("bad.fgnb"), "checksum mismatch",
                              {.threads = t});
    };

    // One bit in each chunk, the short last one included.
    for (std::size_t c = 0; c * chunk < payload; ++c) {
        std::vector<char> damaged = bytes;
        const std::size_t end = std::min(payload, (c + 1) * chunk);
        damaged[88 + end - 3] ^= 0x04;
        expect_rejected(damaged, "bit flip in chunk " + std::to_string(c));
    }

    // Bit 63 of two words 32 bytes apart: the same XXH64 lane in two
    // consecutive stripes.
    {
        std::vector<char> damaged = bytes;
        const std::size_t word = 88 + chunk + 4096;
        damaged[word + 7] ^= static_cast<char>(0x80);
        damaged[word + 32 + 7] ^= static_cast<char>(0x80);
        expect_rejected(damaged, "bit 63 in two words 32 bytes apart");
    }

    // Chunks 1 and 2 swapped: every digest is intact, only the order
    // the fold sees them in differs.
    {
        std::vector<char> damaged = bytes;
        std::swap_ranges(damaged.begin() + 88 + chunk,
                         damaged.begin() + 88 + 2 * chunk,
                         damaged.begin() + 88 + 2 * chunk);
        ASSERT_NE(damaged, bytes);
        expect_rejected(damaged, "chunks 1 and 2 swapped");
    }
}

// ---- Parallel host builds: bit-identical to serial -------------------

TEST(ParallelHostBuildTest, AdjacencyBuildsMatchSerial)
{
    const CooGraph coo = testing::make_random_graph(2, 3000, 0xAD01);
    const GraphRef ref(coo);

    const UndirectedCsr serial_und = build_undirected_csr(coo, 1);
    const CsrGraph serial_csr(coo, 1);
    const CscGraph serial_csc(coo, 1);
    for (unsigned t : {1u, 2u, 5u}) {
        const UndirectedCsr und = build_undirected_csr(ref, t);
        EXPECT_EQ(und.offsets, serial_und.offsets) << t;
        EXPECT_EQ(und.nbr, serial_und.nbr) << t;

        const CsrGraph csr(ref, t);
        const CscGraph csc(ref, t);
        ASSERT_EQ(csr.num_edges(), serial_csr.num_edges()) << t;
        ASSERT_EQ(csc.num_edges(), serial_csc.num_edges()) << t;
        for (std::size_t i = 0; i < csr.num_edges(); ++i) {
            ASSERT_EQ(csr.dst(i), serial_csr.dst(i)) << t << " " << i;
            ASSERT_EQ(csr.edge_id(i), serial_csr.edge_id(i))
                << t << " " << i;
            ASSERT_EQ(csc.src(i), serial_csc.src(i)) << t << " " << i;
            ASSERT_EQ(csc.edge_id(i), serial_csc.edge_id(i))
                << t << " " << i;
        }
        EXPECT_EQ(ref.in_degrees(t), coo.in_degrees()) << t;
        EXPECT_EQ(ref.out_degrees(t), coo.out_degrees()) << t;
    }
}

// ---- Out-of-core differential: mmap view vs in-memory chain ----------

/** Structure-only BA graph on disk + its in-memory twin. */
struct DiskGraph {
    TempDir tmp;
    GraphSample mem;
    std::string path;

    DiskGraph()
    {
        mem.graph = testing::make_random_graph(2, 1500, 0xBEEF);
        mem.node_features = Matrix(mem.graph.num_nodes, 0);
        path = tmp.path("ba.fgnb");
        GraphFile::save(path, mem);
    }
};

TEST(OutOfCoreDifferentialTest, AssignmentMatchesAllStrategies)
{
    DiskGraph g;
    io::GraphView view(g.path);
    for (ShardStrategy strategy : kAllStrategies) {
        const std::vector<std::uint32_t> serial =
            shard_assignment(g.mem.graph, 4, strategy, nullptr, nullptr,
                             nullptr, 1);
        EXPECT_EQ(shard_assignment(view.graph(), 4, strategy, nullptr,
                                   nullptr, nullptr, 4),
                  serial)
            << shard_strategy_name(strategy);

        // Restreaming path (prior + shared adjacency) for the
        // streaming strategies; no-op prior for the rest.
        const UndirectedCsr adj = build_undirected_csr(view.graph(), 4);
        EXPECT_EQ(shard_assignment(view.graph(), 4, strategy, &serial,
                                   nullptr, &adj, 4),
                  shard_assignment(g.mem.graph, 4, strategy, &serial,
                                   nullptr, nullptr, 1))
            << shard_strategy_name(strategy);
    }
}

TEST(OutOfCoreDifferentialTest, GhostRunBitIdenticalToInMemory)
{
    // The bench_host_speed gate in test form: the full out-of-core
    // chain (mmap view -> generated features -> fennel + restream ->
    // ghost plan -> modeled run) at threads = 4 against the copying
    // in-memory chain at threads = 1.
    DiskGraph g;
    io::GraphView view(g.path);

    SampleRef sample = view.sample();
    const Matrix generated =
        gaussian_features(view.num_nodes(), 16, 0x5EED);
    sample.node_features = generated.data();
    sample.node_dim = 16;

    const Model model = make_model(ModelKind::kGcn16, 16, 0);
    ShardConfig cfg;
    cfg.num_shards = 4;
    cfg.strategy = ShardStrategy::kFennel;
    cfg.restream_passes = 2;

    GhostPlan plan = make_ghost_plan(model, sample, cfg, 4);
    RunResult ooc =
        run_ghost_plan(model, EngineConfig{}, sample, std::move(plan),
                       RunOptions{}, cfg.link, 4);

    LoadOptions lo;
    lo.node_dim = 16;
    lo.feature_seed = 0x5EED;
    GraphSample mem = load_graph_sample(g.path, lo);
    GhostPlan mem_plan = make_ghost_plan(model, mem, cfg, 1);
    RunResult in_mem =
        run_ghost_plan(model, EngineConfig{}, mem,
                       std::move(mem_plan), RunOptions{}, cfg.link, 1);

    EXPECT_TRUE(ooc.embeddings == in_mem.embeddings);
    EXPECT_EQ(ooc.prediction, in_mem.prediction);
    EXPECT_EQ(ooc.stats.total_cycles, in_mem.stats.total_cycles);
    EXPECT_EQ(ooc.cut_edges, in_mem.cut_edges);
    EXPECT_EQ(ooc.replication_factor, in_mem.replication_factor);
}

// ---- Parallel planners: bit-identical to the serial GraphSample path -

/** Every field of two ghost plans, `label` naming the case. */
void
expect_same_ghost_plan(const GhostPlan &par, const GhostPlan &serial,
                       const std::string &label)
{
    ASSERT_EQ(par.shards.size(), serial.shards.size()) << label;
    EXPECT_EQ(par.assignment, serial.assignment) << label;
    EXPECT_EQ(par.cut_edges, serial.cut_edges) << label;
    EXPECT_EQ(par.replication_factor, serial.replication_factor)
        << label;
    for (std::size_t i = 0; i < serial.shards.size(); ++i) {
        const GhostShard &a = par.shards[i];
        const GhostShard &b = serial.shards[i];
        EXPECT_EQ(a.locals, b.locals) << label << " " << i;
        EXPECT_EQ(a.is_owned, b.is_owned) << label << " " << i;
        EXPECT_TRUE(testing::ghost_local_coo(par, i).edges ==
                    testing::ghost_local_coo(serial, i).edges)
            << label << " " << i;
        EXPECT_EQ(a.layer_comm_cycles, b.layer_comm_cycles)
            << label << " " << i;
        EXPECT_EQ(a.info.owned_nodes, b.info.owned_nodes)
            << label << " " << i;
        EXPECT_EQ(a.info.ghost_nodes, b.info.ghost_nodes)
            << label << " " << i;
        EXPECT_EQ(a.info.fetched_edges, b.info.fetched_edges)
            << label << " " << i;
        EXPECT_EQ(a.info.exchange_send_words, b.info.exchange_send_words)
            << label << " " << i;
        EXPECT_EQ(a.info.exchange_recv_words, b.info.exchange_recv_words)
            << label << " " << i;
        EXPECT_EQ(a.info.resident_words, b.info.resident_words)
            << label << " " << i;
    }
}

TEST(ParallelPlanTest, GhostPlanThreadsMatchSerial)
{
    GraphSample s = testing::make_random_sample(
        testing::make_random_graph(2, 1200, 0x603), 8, 0, 0x603);
    const Model model = make_model(ModelKind::kGcn16, 8, 0);
    const GraphSample prepared = model.prepare(s);

    ShardConfig cfg;
    cfg.num_shards = 4;
    cfg.strategy = ShardStrategy::kHdrf;

    const GhostPlan serial = make_ghost_plan(model, prepared, cfg, 1);
    // The plan's cut is the sum of its fetched edges; it must equal
    // the direct count.
    EXPECT_EQ(serial.cut_edges,
              shard_cut_edges(prepared.graph, serial.assignment));
    for (unsigned t : {2u, 4u})
        expect_same_ghost_plan(
            make_ghost_plan(model, SampleRef(prepared), cfg, t), serial,
            std::to_string(t));
}

TEST(ParallelPlanTest, LargeGhostPlanThreadsMatchSerial)
{
    // More than kSerialCutoff edges, so every thread count splits the
    // plan's edge scans and the adjacency build, at the reddit-ghost
    // planner's shape: Fennel + 3 restreams, P = 3.
    Rng rng(0x604);
    GraphSample s = testing::make_random_sample(
        make_barabasi_albert(6000, 10, rng), 8, 0, 0x604);
    const Model model = make_model(ModelKind::kGcn16, 8, 0);
    const GraphSample prepared = model.prepare(s);
    ASSERT_GT(prepared.num_edges(), kSerialCutoff);

    ShardConfig cfg;
    cfg.num_shards = 3;
    cfg.strategy = ShardStrategy::kFennel;
    cfg.restream_passes = 3;

    const GhostPlan serial = make_ghost_plan(model, prepared, cfg, 1);
    EXPECT_EQ(serial.cut_edges,
              shard_cut_edges(prepared.graph, serial.assignment));
    for (unsigned t : {2u, 3u, 4u})
        expect_same_ghost_plan(
            make_ghost_plan(model, SampleRef(prepared), cfg, t), serial,
            std::to_string(t));
}

// ---- dest_bank guard --------------------------------------------------

TEST(DestBankTest, ZeroBanksThrowsInsteadOfDividing)
{
    EXPECT_THROW(dest_bank(5, 0), std::invalid_argument);
    EXPECT_EQ(dest_bank(5, 1), 0u);
    EXPECT_EQ(dest_bank(5, 4), 1u);
}

} // namespace
} // namespace flowgnn
