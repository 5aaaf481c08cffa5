/**
 * @file
 * Permutation-invariant message aggregation.
 *
 * Every message-passing layer declares an AggregatorKind; both the
 * reference executor and the dataflow engine accumulate messages
 * through this module so their arithmetic is identical. Aggregation
 * state for each destination node is a flat float record whose layout
 * depends on the kind — this mirrors the FlowGNN message buffer, which
 * holds the running aggregate (size O(N), not O(E), because scatter
 * and gather are merged; paper Sec. III-C).
 */
#ifndef FLOWGNN_NN_AGGREGATOR_H
#define FLOWGNN_NN_AGGREGATOR_H

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "tensor/fixed_point.h"
#include "tensor/matrix.h"

namespace flowgnn {

/** Aggregation function A(.) of the message-passing formulation. */
enum class AggregatorKind {
    kSum,  ///< plain sum (GCN, GIN)
    kMean, ///< running mean
    kMax,  ///< element-wise max
    kMin,  ///< element-wise min
    kPna,  ///< PNA: mean/std/max/min x degree scalers
    kDgn,  ///< DGN: mean of first half, |sum| of second half
};

/** Human-readable aggregator name. */
const char *aggregator_name(AggregatorKind kind);

/** Parameters for PNA degree scaling (delta = avg log-degree). */
struct PnaParams {
    float delta = 1.6094379f; ///< log(4 + 1), a typical molecular value
};

/**
 * Stateless policy describing state layout and operations for one
 * aggregator instance (kind + message dimension). Messages fold in
 * through fold_messages below.
 */
class Aggregator
{
  public:
    Aggregator() = default;
    Aggregator(AggregatorKind kind, std::size_t msg_dim);

    AggregatorKind kind() const { return kind_; }
    std::size_t msg_dim() const { return msg_dim_; }

    /** Floats of per-node state in the message buffer. */
    std::size_t state_dim() const;

    /** Dimension of the finalized aggregate fed to the NT unit. */
    std::size_t out_dim() const;

    /** Resets one node's state to the aggregation identity. */
    void init(float *state) const;

    /**
     * Writes the finalized aggregate for the NT unit into `out`
     * (out_dim() floats).
     *
     * @param state   accumulated per-node state
     * @param degree  the destination node's in-degree (PNA scalers)
     * @param params  PNA scaling parameters
     * @param out     out_dim() floats, all overwritten
     */
    void finalize(const float *state, std::uint32_t degree,
                  const PnaParams &params, float *out) const;

  private:
    AggregatorKind kind_ = AggregatorKind::kSum;
    std::size_t msg_dim_ = 0;
};

namespace detail {

/**
 * Folds message `m` into PNA's sum, sum of squares, max and min rows
 * (dim floats each, consecutive from `sum`), four lanes at a time.
 * Lane-wise IEEE adds and multiplies, and the selects `a < b ? b : a`
 * / `b < a ? b : a` that define std::max / std::min (NaN and signed
 * zero included), so the bits equal the scalar loop's.
 */
inline void
fold_pna_row(float *sum, const float *m, std::size_t dim)
{
    using Lanes = float __attribute__((vector_size(16)));
    float *sumsq = sum + dim;
    float *mx = sumsq + dim;
    float *mn = mx + dim;
    std::size_t i = 0;
    for (; i + 4 <= dim; i += 4) {
        Lanes v;
        Lanes s;
        Lanes q;
        Lanes hi;
        Lanes lo;
        std::memcpy(&v, m + i, sizeof v);
        std::memcpy(&s, sum + i, sizeof s);
        std::memcpy(&q, sumsq + i, sizeof q);
        std::memcpy(&hi, mx + i, sizeof hi);
        std::memcpy(&lo, mn + i, sizeof lo);
        s += v;
        q += v * v;
        hi = hi < v ? v : hi;
        lo = v < lo ? v : lo;
        std::memcpy(sum + i, &s, sizeof s);
        std::memcpy(sumsq + i, &q, sizeof q);
        std::memcpy(mx + i, &hi, sizeof hi);
        std::memcpy(mn + i, &lo, sizeof lo);
    }
    for (; i < dim; ++i) {
        sum[i] += m[i];
        sumsq[i] += m[i] * m[i];
        mx[i] = std::max(mx[i], m[i]);
        mn[i] = std::min(mn[i], m[i]);
    }
}

/** fold_messages for one aggregator kind and fixed-point case. */
template <AggregatorKind K, bool Fixed, class MessageFn>
void
fold_messages(std::size_t dim, std::size_t state_dim,
              const FixedPointFormat *fixed, float *state,
              std::size_t count, MessageFn &message)
{
    ScratchRow row(dim);
    float *m = row.data();
    float *payload = K == AggregatorKind::kSum ? state : state + 1;
    for (std::size_t k = 0; k < count; ++k) {
        message(k, m);
        if constexpr (Fixed)
            quantize_inplace(m, dim, *fixed);
        if constexpr (K != AggregatorKind::kSum)
            state[0] += 1.0f; // the message count
        if constexpr (K == AggregatorKind::kSum ||
                      K == AggregatorKind::kMean ||
                      K == AggregatorKind::kDgn) {
            add_row(payload, m, dim);
        } else if constexpr (K == AggregatorKind::kMax) {
            max_row(payload, m, dim);
        } else if constexpr (K == AggregatorKind::kMin) {
            min_row(payload, m, dim);
        } else { // kPna: sum, sum of squares, max, min
            fold_pna_row(payload, m, dim);
        }
        if constexpr (Fixed)
            quantize_inplace(state, state_dim, *fixed);
    }
}

template <AggregatorKind K, class MessageFn>
void
fold_messages(const Aggregator &agg, const FixedPointFormat *fixed,
              float *state, std::size_t count, MessageFn &message)
{
    if (fixed != nullptr)
        fold_messages<K, true>(agg.msg_dim(), agg.state_dim(), fixed,
                               state, count, message);
    else
        fold_messages<K, false>(agg.msg_dim(), agg.state_dim(), fixed,
                                state, count, message);
}

} // namespace detail

/**
 * The fused message + aggregate loop every layer's gather runs (the
 * MP unit's streaming step): for k in [0, count), message(k, row)
 * writes message k into a msg_dim()-float stack row, which folds into
 * one destination's `state` at once — never through a message buffer.
 * With `fixed` set, the row is quantized before the fold and the
 * state after it, the engine's quantize points. The aggregator kind
 * and the fixed-point case are picked once per call, outside the edge
 * loop; folding k messages in one call equals k one-message calls bit
 * for bit.
 */
template <class MessageFn>
inline void
fold_messages(const Aggregator &agg, const FixedPointFormat *fixed,
              float *state, std::size_t count, MessageFn &&message)
{
    using K = AggregatorKind;
    switch (agg.kind()) {
      case K::kSum:
        return detail::fold_messages<K::kSum>(agg, fixed, state, count,
                                              message);
      case K::kMean:
        return detail::fold_messages<K::kMean>(agg, fixed, state, count,
                                               message);
      case K::kMax:
        return detail::fold_messages<K::kMax>(agg, fixed, state, count,
                                              message);
      case K::kMin:
        return detail::fold_messages<K::kMin>(agg, fixed, state, count,
                                              message);
      case K::kPna:
        return detail::fold_messages<K::kPna>(agg, fixed, state, count,
                                              message);
      case K::kDgn:
        return detail::fold_messages<K::kDgn>(agg, fixed, state, count,
                                              message);
    }
}

} // namespace flowgnn

#endif // FLOWGNN_NN_AGGREGATOR_H
