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
            for (std::size_t i = 0; i < dim; ++i)
                payload[i] = std::max(payload[i], m[i]);
        } else if constexpr (K == AggregatorKind::kMin) {
            for (std::size_t i = 0; i < dim; ++i)
                payload[i] = std::min(payload[i], m[i]);
        } else { // kPna: sum, sum of squares, max, min
            float *sumsq = payload + dim;
            float *mx = sumsq + dim;
            float *mn = mx + dim;
            for (std::size_t i = 0; i < dim; ++i) {
                payload[i] += m[i];
                sumsq[i] += m[i] * m[i];
                mx[i] = std::max(mx[i], m[i]);
                mn[i] = std::min(mn[i], m[i]);
            }
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
