/**
 * @file
 * Fuzz harness for the sample doors: an in-memory GraphSample reaches
 * the engine and the ghost planner without passing any file loader,
 * so Model::prepare and the SampleRef conversion are its only checks.
 * The input bytes decode into a sample of at most 64 nodes with any
 * endpoint values (out of range included), any section row counts,
 * and optional dgn_field, degree overrides and pool size. The sample
 * runs through Engine::run for every ModelKind, and through
 * make_ghost_plan (then run_ghost_plan) for every ShardStrategy at
 * P = 1, 2, 3. Each call must succeed or throw std::invalid_argument;
 * anything else escapes and aborts the harness.
 *
 * Layout: [nodes % 65] [edges % 97] [section byte A] [section byte B]
 * [src, dst byte per edge] [feature bytes, cycled]. Each section field
 * is two bits (see decode), and bit 4 of byte B widens the edge
 * features one column past what the models read; bits 5 and 6 of
 * byte B put a NaN into a node feature and an infinity into an edge
 * feature, at a slot read from the next input byte. An endpoint byte
 * below 0xF8 is taken modulo the node count, the rest land at or
 * past it.
 */
#include "fuzz/fuzz_common.h"

#include <limits>
#include <stdexcept>
#include <vector>

#include "core/engine.h"
#include "ghost/ghost_engine.h"

namespace {

using flowgnn::NodeId;

constexpr std::size_t kNodeDim = 4;
constexpr std::size_t kEdgeDim = 2;

constexpr flowgnn::ModelKind kAllKinds[] = {
    flowgnn::ModelKind::kGcn,   flowgnn::ModelKind::kGin,
    flowgnn::ModelKind::kGinVn, flowgnn::ModelKind::kGat,
    flowgnn::ModelKind::kPna,   flowgnn::ModelKind::kDgn,
    flowgnn::ModelKind::kGcn16, flowgnn::ModelKind::kSage,
    flowgnn::ModelKind::kSgc,
};

constexpr flowgnn::ShardStrategy kAllStrategies[] = {
    flowgnn::ShardStrategy::kModulo,
    flowgnn::ShardStrategy::kContiguous,
    flowgnn::ShardStrategy::kGreedyBalanced,
    flowgnn::ShardStrategy::kBfsContiguous,
    flowgnn::ShardStrategy::kLdg,
    flowgnn::ShardStrategy::kFennel,
    flowgnn::ShardStrategy::kHdrf,
};

/** Reads the input front to back; zeros once it runs out. */
class Bytes
{
  public:
    Bytes(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    std::uint8_t
    next()
    {
        return pos_ < size_ ? data_[pos_++] : 0;
    }

    /** A feature value in [-4, 4), cycling over the input. */
    float
    value()
    {
        const std::uint8_t b = size_ == 0 ? 0 : data_[pos_++ % size_];
        return (static_cast<float>(b) - 128.0f) / 32.0f;
    }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** A section length from its two-bit mode: absent (0, when the
 * section may be absent), exact, one short, one long. */
std::size_t
section_rows(unsigned mode, std::size_t exact, bool optional)
{
    switch (mode & 3u) {
      case 0: return optional ? 0 : exact;
      case 1: return exact;
      case 2: return exact == 0 ? 1 : exact - 1;
      default: return exact + 1;
    }
}

flowgnn::GraphSample
decode(Bytes &in)
{
    flowgnn::GraphSample s;
    const NodeId n = in.next() % 65;
    const std::size_t e = in.next() % 97;
    const unsigned a = in.next();
    const unsigned b = in.next();
    s.graph.num_nodes = n;
    for (std::size_t i = 0; i < e; ++i) {
        NodeId end[2];
        for (NodeId &v : end) {
            const std::uint8_t x = in.next();
            v = x < 0xF8 ? (n == 0 ? 0 : x % n)
                         : (x == 0xFF ? 0xFFFFFFFFu : n + (x - 0xF8));
        }
        s.graph.edges.push_back({end[0], end[1]});
    }

    s.node_features = flowgnn::Matrix(section_rows(a, n, false), kNodeDim);
    const unsigned edge_mode = (a >> 2) & 3u;
    if (edge_mode != 0)
        s.edge_features = flowgnn::Matrix(
            edge_mode == 3 ? 0 : section_rows(edge_mode, e, true),
            kEdgeDim + ((b >> 4) & 1u));
    for (flowgnn::Matrix *m : {&s.node_features, &s.edge_features})
        for (std::size_t i = 0; i < m->size(); ++i)
            m->data()[i] = in.value();
    const float poison[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()};
    flowgnn::Matrix *poisoned[] = {&s.node_features, &s.edge_features};
    for (unsigned k = 0; k < 2; ++k)
        if (((b >> (5 + k)) & 1u) && poisoned[k]->size() > 0)
            poisoned[k]->data()[in.next() % poisoned[k]->size()] = poison[k];
    s.dgn_field.resize(section_rows(a >> 4, n, true));
    for (float &u : s.dgn_field)
        u = in.value();
    s.num_pool_nodes = static_cast<NodeId>(section_rows(a >> 6, n, true));
    s.true_in_deg.resize(section_rows(b, n, true));
    s.true_out_deg.resize(section_rows(b >> 2, n, true));
    for (auto *deg : {&s.true_in_deg, &s.true_out_deg})
        for (std::uint32_t &d : *deg)
            d = in.next();
    return s;
}

/** Runs `fn`; malformed input may only end in std::invalid_argument. */
template <class Fn>
void
accept_or_reject(Fn &&fn)
{
    try {
        fn();
    } catch (const std::invalid_argument &) {
        // Expected: the sample was rejected at a door.
    }
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    if (size > (1u << 12))
        return 0;
    static const std::vector<flowgnn::Model> models = [] {
        std::vector<flowgnn::Model> out;
        for (flowgnn::ModelKind kind : kAllKinds)
            out.push_back(flowgnn::make_model(kind, kNodeDim, kEdgeDim));
        return out;
    }();

    Bytes in(data, size);
    const flowgnn::GraphSample sample = decode(in);

    for (const flowgnn::Model &model : models)
        accept_or_reject([&] { flowgnn::Engine(model).run(sample); });

    const flowgnn::Model &planner = models.front(); // GCN: no virtual node
    for (flowgnn::ShardStrategy strategy : kAllStrategies) {
        for (std::uint32_t p : {1u, 2u, 3u}) {
            flowgnn::ShardConfig cfg;
            cfg.num_shards = p;
            cfg.strategy = strategy;
            cfg.restream_passes = 1;
            accept_or_reject([&] {
                const flowgnn::GhostPlan plan =
                    flowgnn::make_ghost_plan(planner, sample, cfg, 1);
                flowgnn::run_ghost_plan(planner, {}, sample, plan, {},
                                        cfg.link, 1);
            });
        }
    }
    return 0;
}
