/** @file Aggregator policy tests (state layout, math, invariance). */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "nn/aggregator.h"
#include "tensor/fixed_point.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace flowgnn {
namespace {

Vec
run_agg(const Aggregator &agg, const std::vector<Vec> &msgs,
        std::uint32_t degree, const PnaParams &params = {})
{
    std::vector<float> state(agg.state_dim());
    agg.init(state.data());
    fold_messages(agg, nullptr, state.data(), msgs.size(),
                  [&](std::size_t k, float *out) {
                      std::copy(msgs[k].begin(), msgs[k].end(), out);
                  });
    Vec out(agg.out_dim());
    agg.finalize(state.data(), degree, params, out.data());
    return out;
}

TEST(Aggregator, StateDims)
{
    EXPECT_EQ(Aggregator(AggregatorKind::kSum, 5).state_dim(), 5u);
    EXPECT_EQ(Aggregator(AggregatorKind::kMean, 5).state_dim(), 6u);
    EXPECT_EQ(Aggregator(AggregatorKind::kMax, 5).state_dim(), 6u);
    EXPECT_EQ(Aggregator(AggregatorKind::kMin, 5).state_dim(), 6u);
    EXPECT_EQ(Aggregator(AggregatorKind::kPna, 5).state_dim(), 21u);
    EXPECT_EQ(Aggregator(AggregatorKind::kDgn, 6).state_dim(), 7u);
}

TEST(Aggregator, OutDims)
{
    EXPECT_EQ(Aggregator(AggregatorKind::kSum, 5).out_dim(), 5u);
    EXPECT_EQ(Aggregator(AggregatorKind::kPna, 5).out_dim(), 60u);
    EXPECT_EQ(Aggregator(AggregatorKind::kDgn, 6).out_dim(), 6u);
}

TEST(Aggregator, DgnRequiresEvenDim)
{
    EXPECT_THROW(Aggregator(AggregatorKind::kDgn, 5),
                 std::invalid_argument);
}

TEST(Aggregator, SumIsPlainSum)
{
    Aggregator agg(AggregatorKind::kSum, 3);
    Vec out = run_agg(agg, {{1, 2, 3}, {10, 20, 30}}, 2);
    EXPECT_EQ(out, (Vec{11, 22, 33}));
}

TEST(Aggregator, MeanDividesByCount)
{
    Aggregator agg(AggregatorKind::kMean, 2);
    Vec out = run_agg(agg, {{2, 4}, {4, 8}}, 2);
    EXPECT_EQ(out, (Vec{3, 6}));
}

TEST(Aggregator, MaxMinElementwise)
{
    Aggregator mx(AggregatorKind::kMax, 2);
    EXPECT_EQ(run_agg(mx, {{1, 9}, {5, 2}}, 2), (Vec{5, 9}));
    Aggregator mn(AggregatorKind::kMin, 2);
    EXPECT_EQ(run_agg(mn, {{1, 9}, {5, 2}}, 2), (Vec{1, 2}));
}

TEST(Aggregator, EmptyNeighborhoodsAreZero)
{
    for (auto kind :
         {AggregatorKind::kSum, AggregatorKind::kMean,
          AggregatorKind::kMax, AggregatorKind::kMin,
          AggregatorKind::kDgn}) {
        Aggregator agg(kind, 4);
        Vec out = run_agg(agg, {}, 0);
        for (float v : out)
            EXPECT_EQ(v, 0.0f) << aggregator_name(kind);
    }
    Aggregator pna(AggregatorKind::kPna, 4);
    Vec out = run_agg(pna, {}, 0);
    for (float v : out)
        EXPECT_EQ(v, 0.0f);
}

TEST(Aggregator, DgnMeansFirstHalfAbsSecondHalf)
{
    Aggregator agg(AggregatorKind::kDgn, 4);
    // Messages are [m, w*m] pairs; dir parts cancel to a negative sum.
    Vec out = run_agg(agg, {{2, 2, -3, 1}, {4, 4, 1, -5}}, 2);
    EXPECT_EQ(out[0], 3.0f); // mean of {2,4}
    EXPECT_EQ(out[1], 3.0f);
    EXPECT_EQ(out[2], 2.0f); // |-3 + 1|
    EXPECT_EQ(out[3], 4.0f); // |1 - 5|
}

TEST(Aggregator, PnaBlocksMatchManualComputation)
{
    Aggregator agg(AggregatorKind::kPna, 1);
    PnaParams params{1.0f};
    std::uint32_t degree = 3;
    Vec out = run_agg(agg, {{1}, {2}, {3}}, degree, params);
    ASSERT_EQ(out.size(), 12u);

    float mean = 2.0f;
    float var = (1.0f + 4.0f + 9.0f) / 3.0f - 4.0f;
    float stdv = std::sqrt(var + 1e-5f);
    float mx = 3.0f, mn = 1.0f;
    float logd = std::log(4.0f);
    float amp = logd / 1.0f;
    float att = 1.0f / logd;

    // Block order: [id, amp, att] x [mean, std, max, min].
    EXPECT_FLOAT_EQ(out[0], mean);
    EXPECT_NEAR(out[1], stdv, 1e-5f);
    EXPECT_FLOAT_EQ(out[2], mx);
    EXPECT_FLOAT_EQ(out[3], mn);
    EXPECT_FLOAT_EQ(out[4], amp * mean);
    EXPECT_NEAR(out[5], amp * stdv, 1e-5f);
    EXPECT_FLOAT_EQ(out[6], amp * mx);
    EXPECT_FLOAT_EQ(out[7], amp * mn);
    EXPECT_FLOAT_EQ(out[8], att * mean);
    EXPECT_NEAR(out[9], att * stdv, 1e-5f);
    EXPECT_FLOAT_EQ(out[10], att * mx);
    EXPECT_FLOAT_EQ(out[11], att * mn);
}

TEST(Aggregator, PnaZeroDegreeScalerGuard)
{
    Aggregator agg(AggregatorKind::kPna, 2);
    Vec out = run_agg(agg, {}, 0);
    for (float v : out) {
        EXPECT_FALSE(std::isnan(v));
        EXPECT_FALSE(std::isinf(v));
    }
}

/** Permutation invariance: aggregation order must not matter (beyond
 * float rounding) — the property that lets FlowGNN merge scatter and
 * gather (paper Sec. III-C). */
class AggregatorInvariance
    : public ::testing::TestWithParam<AggregatorKind>
{
};

TEST_P(AggregatorInvariance, OrderIndependentWithinTolerance)
{
    AggregatorKind kind = GetParam();
    std::size_t dim = (kind == AggregatorKind::kDgn) ? 6 : 5;
    Aggregator agg(kind, dim);
    Rng rng(11);
    std::vector<Vec> msgs;
    for (int i = 0; i < 12; ++i) {
        Vec m(dim);
        for (auto &v : m)
            v = static_cast<float>(rng.uniform(-2, 2));
        msgs.push_back(m);
    }
    Vec fwd = run_agg(agg, msgs, 12);
    std::vector<Vec> rev(msgs.rbegin(), msgs.rend());
    Vec bwd = run_agg(agg, rev, 12);
    EXPECT_LT(max_abs_diff(fwd, bwd), 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, AggregatorInvariance,
    ::testing::Values(AggregatorKind::kSum, AggregatorKind::kMean,
                      AggregatorKind::kMax, AggregatorKind::kMin,
                      AggregatorKind::kPna, AggregatorKind::kDgn));

/** The per-message fold of every kind, written out from the state
 * layout: the reference fold_messages must match. */
void
reference_accumulate(const Aggregator &agg, float *state, const float *msg)
{
    const std::size_t dim = agg.msg_dim();
    if (agg.kind() == AggregatorKind::kSum) {
        for (std::size_t i = 0; i < dim; ++i)
            state[i] += msg[i];
        return;
    }
    state[0] += 1.0f;
    float *p = state + 1;
    for (std::size_t i = 0; i < dim; ++i) {
        switch (agg.kind()) {
          case AggregatorKind::kMean:
          case AggregatorKind::kDgn:
            p[i] += msg[i];
            break;
          case AggregatorKind::kMax:
            p[i] = std::max(p[i], msg[i]);
            break;
          case AggregatorKind::kMin:
            p[i] = std::min(p[i], msg[i]);
            break;
          case AggregatorKind::kPna:
            p[i] += msg[i];
            p[dim + i] += msg[i] * msg[i];
            p[2 * dim + i] = std::max(p[2 * dim + i], msg[i]);
            p[3 * dim + i] = std::min(p[3 * dim + i], msg[i]);
            break;
          case AggregatorKind::kSum:
            break;
        }
    }
}

class FoldMessages
    : public ::testing::TestWithParam<std::tuple<AggregatorKind, bool>>
{
};

TEST_P(FoldMessages, MatchesPerMessageAccumulation)
{
    // One call over every message == the written-out per-message fold
    // == one fold_messages call per message, bit for bit, with the
    // engine's quantize points (message, then state) under fixed point.
    const auto [kind, fixed] = GetParam();
    const std::size_t dim = 6;
    const Aggregator agg(kind, dim);
    const FixedPointFormat *fmt = fixed ? &kFixed12_8 : nullptr;
    Rng rng(21);
    std::vector<Vec> msgs(70, Vec(dim));
    for (Vec &m : msgs)
        for (float &v : m)
            v = static_cast<float>(rng.uniform(-3, 3));
    auto copy_msg = [&](std::size_t base) {
        return [&msgs, base](std::size_t k, float *out) {
            std::copy(msgs[base + k].begin(), msgs[base + k].end(), out);
        };
    };

    std::vector<float> fused(agg.state_dim());
    std::vector<float> single(agg.state_dim());
    std::vector<float> manual(agg.state_dim());
    agg.init(fused.data());
    agg.init(single.data());
    agg.init(manual.data());
    fold_messages(agg, fmt, fused.data(), msgs.size(), copy_msg(0));
    for (std::size_t k = 0; k < msgs.size(); ++k) {
        fold_messages(agg, fmt, single.data(), 1, copy_msg(k));
        Vec m = msgs[k];
        if (fmt != nullptr)
            quantize_inplace(m, *fmt);
        reference_accumulate(agg, manual.data(), m.data());
        if (fmt != nullptr)
            quantize_inplace(manual.data(), manual.size(), *fmt);
    }
    EXPECT_EQ(fused, manual) << aggregator_name(kind);
    EXPECT_EQ(fused, single) << aggregator_name(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, FoldMessages,
    ::testing::Combine(
        ::testing::Values(AggregatorKind::kSum, AggregatorKind::kMean,
                          AggregatorKind::kMax, AggregatorKind::kMin,
                          AggregatorKind::kPna, AggregatorKind::kDgn),
        ::testing::Bool()));

} // namespace
} // namespace flowgnn
