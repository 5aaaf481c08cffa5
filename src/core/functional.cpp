#include "core/functional.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/parallel.h"
#include "nn/gat_layer.h"
#include "tensor/fixed_point.h"

namespace flowgnn {

namespace {

/** Edges below which the kernel stays on the caller: a gathered edge
 * (message + accumulate) costs far more than a counting-sort element,
 * so workers pay off from a few thousand edges. */
constexpr std::size_t kKernelSerialCutoff = std::size_t(1) << 12;

/** True when every value of `x[0, count)` is finite: a NaN or ±Inf
 * has all exponent bits set. Read as bits, so the test holds under
 * any floating-point flags, and the loop vectorizes. */
bool
all_finite(const float *x, std::size_t count)
{
    std::uint32_t bad = 0;
    for (std::size_t k = 0; k < count; ++k) {
        std::uint32_t bits;
        std::memcpy(&bits, x + k, sizeof(bits));
        bad |= static_cast<std::uint32_t>((bits & 0x7F800000u) ==
                                          0x7F800000u);
    }
    return bad == 0;
}

[[noreturn]] void
throw_non_finite(const char *what, std::size_t row)
{
    throw std::invalid_argument("functional_forward: " +
                                std::string(what) + " row " +
                                std::to_string(row) +
                                " holds a NaN or infinite value");
}

bool
is_conv(const Layer &stage)
{
    return stage.msg_dim() > 0 &&
           stage.dataflow() == DataflowKind::kNtToMp;
}

/** The GAT layer behind an MP-to-NT stage; null for other stages. */
const GatLayer *
attention(const Layer &stage)
{
    if (stage.dataflow() != DataflowKind::kMpToNt)
        return nullptr;
    const auto *gat = dynamic_cast<const GatLayer *>(&stage);
    if (gat == nullptr)
        throw std::logic_error(
            "functional_forward: MP-to-NT stage is not GAT");
    return gat;
}

/**
 * One kernel pass over a prepared sample: the layer context, the
 * in-adjacencies (the src-major one up front when a stage gathers, the
 * stream-order one on first use), and the per-stage phases over
 * row-major [num_nodes x width] buffers. Every phase writes only rows
 * its worker owns.
 */
class Pass
{
  public:
    /** `gathers`: some stage of this pass gathers messages, so the
     * src-major in-adjacency is built up front and the context's
     * degrees are read off its counting sorts. */
    Pass(const Model &model, const SampleRef &g, const RunOptions &opts,
         unsigned threads, bool gathers)
        : g_(g), n_(g.num_nodes()), opts_(opts), threads_(threads)
    {
        if (g.num_edges() >= kKernelSerialCutoff)
            parts_ = std::min<unsigned>(host_threads(threads), n_);
        // Edge ids ride along only when some conv reads edge features.
        for (std::size_t si = 0; si < model.num_stages(); ++si)
            edge_ids_ = edge_ids_ ||
                        (g.edge_dim > 0 && is_conv(model.stage(si)) &&
                         model.stage(si).uses_edge_features());
        NodeDegrees counted;
        if (gathers) {
            src_major_ = build(CscOrder::kSrcMajor, &counted.out);
            counted.in = src_major_->csc.in_degrees();
        }
        ctx_ = make_layer_context(g, model.pna_params(), threads,
                                  gathers ? &counted : nullptr);
    }

    void
    quantize(float *values, std::size_t count) const
    {
        if (opts_.emulate_fixed_point)
            quantize_inplace(values, count, opts_.fixed_point);
    }

    /** out = stage.transform_rows(x, finalized aggregates) — the GAT
     * projection for attention — once over each worker's node range;
     * quantized. */
    void
    transform(const Layer &stage, const std::vector<float> &x,
              const Aggregator *agg, const std::vector<float> &state,
              std::vector<float> &out)
    {
        const std::size_t in_dim = stage.in_dim();
        const std::size_t out_dim = stage.out_dim();
        const std::size_t sd = agg != nullptr ? agg->state_dim() : 0;
        const std::size_t fd = agg != nullptr ? agg->out_dim() : 0;
        out.resize(std::size_t(n_) * out_dim);
        parallel_ranges(
            n_, parts_,
            [&](std::size_t begin, std::size_t end, unsigned) {
                const std::size_t count = end - begin;
                // The range's finalized aggregates, one row per node.
                std::vector<float> fin(count * fd);
                if (agg != nullptr) {
                    for (std::size_t i = begin; i < end; ++i)
                        agg->finalize(state.data() + i * sd, ctx_.in_deg[i],
                                      ctx_.pna, fin.data() + (i - begin) * fd);
                    quantize(fin.data(), fin.size());
                }
                float *y = out.data() + begin * out_dim;
                stage.transform_rows(x.data() + begin * in_dim,
                                     agg != nullptr ? fin.data() : nullptr,
                                     static_cast<NodeId>(begin), count,
                                     ctx_, y);
                quantize(y, count * out_dim);
            },
            /*serial_cutoff=*/1);
    }

    /** Fused message + aggregate of `conv` over its inputs `x` into
     * `state` [num_nodes x state_dim]: one Layer::gather per
     * destination over its src-major column. */
    void
    gather(const Layer &conv, const std::vector<float> &x,
           std::vector<float> &state)
    {
        const Adjacency &adj = adjacency(CscOrder::kSrcMajor);
        const Aggregator agg = conv.aggregator();
        const std::size_t sd = agg.state_dim();
        const bool edges = edge_ids_ && conv.uses_edge_features();
        MessageInputs in;
        in.x = x.data();
        if (edges) {
            in.edge_features = g_.edge_features;
            in.edge_dim = g_.edge_dim;
        }
        if (opts_.emulate_fixed_point)
            in.fixed = &opts_.fixed_point;
        state.resize(std::size_t(n_) * sd);
        for_parts(adj, [&](NodeId dst) {
            float *st = state.data() + std::size_t(dst) * sd;
            agg.init(st);
            InEdges col;
            col.dst = dst;
            col.count = adj.csc.in_degree(dst);
            col.src = adj.csc.col_srcs(dst);
            if (edges)
                col.edge_id = adj.csc.col_edge_ids(dst);
            conv.gather(col, in, ctx_, st);
        });
    }

    /** The deferred attention combine over projections `h`, in stream
     * order — the attention gather's own arrival order. Each node's
     * logit halves are scored once, before any edge reads them. */
    void
    combine(const GatLayer &gat, const std::vector<float> &h,
            std::vector<float> &out)
    {
        const Adjacency &adj = adjacency(CscOrder::kStream);
        const std::size_t dim = gat.out_dim();
        const std::size_t stride = 2 * gat.num_heads();
        std::vector<float> scores(std::size_t(n_) * stride);
        parallel_ranges(
            n_, parts_,
            [&](std::size_t begin, std::size_t end, unsigned) {
                for (std::size_t i = begin; i < end; ++i)
                    gat.scores(h.data() + i * dim,
                               scores.data() + i * stride);
            },
            /*serial_cutoff=*/1);
        out.resize(std::size_t(n_) * dim);
        for_parts(adj, [&](NodeId dst) {
            float *y = out.data() + std::size_t(dst) * dim;
            gat_combine(gat, h.data(), scores.data(), dst,
                        adj.csc.col_srcs(dst), adj.csc.in_degree(dst), y);
            quantize(y, dim);
        });
    }

  private:
    struct Adjacency {
        CscGraph csc;
        std::vector<NodeId> bounds; ///< edge-balanced worker ranges
    };

    /** The in-adjacency in `order` (src-major: out-degrees into
     * `out_deg` when non-null). Attention never reads edge features,
     * so only the src-major one keeps edge ids. */
    std::unique_ptr<Adjacency>
    build(CscOrder order, std::vector<std::uint32_t> *out_deg = nullptr) const
    {
        auto adj = std::make_unique<Adjacency>();
        adj->csc = CscGraph(g_.graph, threads_, order,
                            order == CscOrder::kSrcMajor && edge_ids_,
                            out_deg);
        adj->bounds = adj->csc.balanced_cols(parts_);
        return adj;
    }

    /** The in-adjacency in `order`, built on first use. */
    const Adjacency &
    adjacency(CscOrder order)
    {
        std::unique_ptr<Adjacency> &slot =
            order == CscOrder::kSrcMajor ? src_major_ : stream_;
        if (!slot)
            slot = build(order);
        return *slot;
    }

    /** fn(dst) for every destination, one thread per edge-balanced
     * range. */
    template <class Fn>
    void
    for_parts(const Adjacency &adj, Fn &&fn) const
    {
        parallel_ranges(
            parts_, parts_,
            [&](std::size_t p, std::size_t, unsigned) {
                for (NodeId v = adj.bounds[p]; v < adj.bounds[p + 1]; ++v)
                    fn(v);
            },
            /*serial_cutoff=*/2);
    }

    const SampleRef &g_;
    const NodeId n_;
    const RunOptions &opts_;
    const unsigned threads_;
    LayerContext ctx_;
    unsigned parts_ = 1;
    bool edge_ids_ = false;
    std::unique_ptr<Adjacency> src_major_;
    std::unique_ptr<Adjacency> stream_;
};

} // namespace

SegmentOutcome
functional_forward(const Model &model, const SampleRef &prepared,
                   const RunOptions &opts, unsigned threads,
                   LayerCheckpoint &ckpt, std::size_t max_stages,
                   Matrix &embeddings, FunctionalScratch *scratch)
{
    opts.validate();
    const NodeId n = prepared.num_nodes();
    const std::size_t n_stages = model.num_stages();
    const std::size_t first = ckpt.next_stage;
    if (n == 0)
        throw std::invalid_argument("functional_forward: no nodes");
    if (!prepared.consistent(threads) ||
        prepared.node_dim != model.stage(0).in_dim())
        throw std::invalid_argument(
            "functional_forward: inconsistent sample");
    if (first >= n_stages)
        throw std::invalid_argument(
            "functional_forward: resume point past the last stage");
    // A stage that reads edge features would silently drop rows of
    // another width (LayerInputs::has_edge_rows); a featureless
    // sample runs without them. The stages left to run read every
    // value, so a NaN or infinity among them is rejected too.
    if (prepared.edge_dim > 0) {
        bool reads_edges = false;
        for (std::size_t si = 0; si < n_stages; ++si) {
            const std::size_t want = model.stage(si).edge_dim();
            if (want > 0 && want != prepared.edge_dim)
                throw std::invalid_argument(
                    "functional_forward: edge features are " +
                    std::to_string(prepared.edge_dim) +
                    " wide, stage " + std::to_string(si) + " reads " +
                    std::to_string(want));
            reads_edges = reads_edges || (si >= first && want > 0);
        }
        if (reads_edges)
            for (std::size_t e = 0; e < prepared.num_edges(); ++e)
                if (!all_finite(prepared.edge_row(e), prepared.edge_dim))
                    throw_non_finite("edge-feature", e);
    }

    FunctionalScratch local;
    FunctionalScratch &ws = scratch != nullptr ? *scratch : local;
    std::vector<float> &cur = ws.cur;
    std::vector<float> &out = ws.out;
    std::vector<float> &state = ws.state;
    // Every conv left to run gathers, except a resumed first stage
    // whose messages the checkpoint carries.
    bool gathers = false;
    for (std::size_t si = first; si < n_stages; ++si)
        gathers = gathers ||
                  (is_conv(model.stage(si)) &&
                   (si > first || first == 0 || !ckpt.have_agg));
    Pass pass(model, prepared, opts, threads, gathers);

    bool have_agg = false;
    const GatLayer *pending_gat = nullptr;
    if (first == 0) {
        // The copy checks each row while it is in cache: every stage
        // would carry a NaN or infinity into its neighbors' outputs.
        const std::size_t dim = prepared.node_dim;
        cur.clear();
        cur.reserve(std::size_t(n) * dim);
        for (NodeId i = 0; i < n; ++i) {
            const float *row =
                prepared.node_features + std::size_t(i) * dim;
            cur.insert(cur.end(), row, row + dim);
            if (!all_finite(row, dim))
                throw_non_finite("node-feature", i);
        }
        pass.quantize(cur.data(), cur.size());
    } else {
        // A boundary's value state is exactly what the checkpoint holds.
        const std::size_t dim = model.stage(first - 1).out_dim();
        pending_gat = attention(model.stage(first - 1));
        if (ckpt.embeddings.size() != n ||
            ckpt.pending_gat != (pending_gat != nullptr) ||
            std::any_of(ckpt.embeddings.begin(), ckpt.embeddings.end(),
                        [&](const Vec &row) { return row.size() != dim; }))
            throw std::invalid_argument(
                "functional_forward: checkpoint does not match the sample");
        cur.resize(std::size_t(n) * dim);
        for (NodeId i = 0; i < n; ++i)
            std::copy(ckpt.embeddings[i].begin(), ckpt.embeddings[i].end(),
                      cur.data() + std::size_t(i) * dim);
        have_agg = ckpt.have_agg;
        if (have_agg)
            state = std::move(ckpt.agg_state);
    }

    for (std::size_t si = first, done = 1; si < n_stages; ++si, ++done) {
        const Layer &stage = model.stage(si);
        // Prologue: materialize the previous attention stage's combine.
        if (pending_gat != nullptr) {
            pass.combine(*pending_gat, cur, out);
            std::swap(cur, out);
        }
        // A conv whose messages no earlier stage gathered (the first
        // stage, or one right after attention) gathers them itself.
        if (is_conv(stage) && !have_agg) {
            pass.gather(stage, cur, state);
            have_agg = true;
        }
        const Aggregator agg = have_agg ? stage.aggregator() : Aggregator();
        pending_gat = attention(stage);
        pass.transform(stage, cur, have_agg ? &agg : nullptr, state, out);
        std::swap(cur, out);

        // The fused scatter: the next conv's messages over this stage's
        // outputs, gathered now so a boundary checkpoint carries them.
        have_agg = pending_gat == nullptr && si + 1 < n_stages &&
                   is_conv(model.stage(si + 1));
        if (have_agg)
            pass.gather(model.stage(si + 1), cur, state);

        // Layer-boundary yield point: only after progress this call,
        // never after the final stage (its epilogue is cheaper than a
        // checkpoint round-trip).
        if (si + 1 < n_stages &&
            (done >= max_stages ||
             (opts.preempt != nullptr && opts.preempt->requested()))) {
            const std::size_t dim = stage.out_dim();
            ckpt.next_stage = si + 1;
            ckpt.embeddings.resize(n);
            for (NodeId i = 0; i < n; ++i)
                ckpt.embeddings[i].assign(cur.data() + std::size_t(i) * dim,
                                          cur.data() +
                                              std::size_t(i + 1) * dim);
            ckpt.agg_state =
                have_agg ? std::move(state) : std::vector<float>();
            ckpt.have_agg = have_agg;
            ckpt.pending_gat = pending_gat != nullptr;
            return SegmentOutcome::kPreempted;
        }
    }

    // Epilogue: the final combine when the last stage was attention.
    if (pending_gat != nullptr) {
        pass.combine(*pending_gat, cur, out);
        std::swap(cur, out);
    }
    embeddings = Matrix(n, model.embedding_dim());
    std::copy(cur.begin(), cur.begin() + embeddings.size(),
              embeddings.data());
    ckpt = LayerCheckpoint{}; // fresh for the next job
    return SegmentOutcome::kComplete;
}

// Defined beside the kernel it delegates to: nn sits below the engine
// layer, so nn/model.cpp cannot call into core/functional.
Matrix
Model::reference_embeddings(const GraphSample &prepared) const
{
    LayerCheckpoint fresh;
    Matrix embeddings;
    functional_forward(*this, SampleRef(prepared), RunOptions{}, 1, fresh,
                       std::size_t(-1), embeddings);
    return embeddings;
}

} // namespace flowgnn
