/** @file Linear / MLP layer unit tests. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/linear.h"
#include "tensor/mlp.h"
#include "tensor/ops.h"

namespace flowgnn {
namespace {

TEST(Linear, ZeroWeightsYieldBias)
{
    Linear lin(3, 2);
    lin.bias_ref() = {1.0f, -1.0f};
    Vec y = lin.forward({5, 6, 7});
    EXPECT_EQ(y, (Vec{1.0f, -1.0f}));
}

TEST(Linear, KnownMatrixVectorProduct)
{
    Linear lin(2, 2);
    lin.weight()(0, 0) = 1.0f;
    lin.weight()(0, 1) = 2.0f;
    lin.weight()(1, 0) = -1.0f;
    lin.weight()(1, 1) = 0.5f;
    lin.bias_ref() = {10.0f, 0.0f};
    Vec y = lin.forward({3.0f, 4.0f});
    EXPECT_FLOAT_EQ(y[0], 10.0f + 3.0f + 8.0f);
    EXPECT_FLOAT_EQ(y[1], -3.0f + 2.0f);
}

TEST(Linear, DimensionChecks)
{
    Linear lin(3, 2);
    EXPECT_THROW(lin.forward({1, 2}), std::invalid_argument);
}

/** `rows` rows of `dim` uniform values in [-2, 2), some exact zeros. */
std::vector<float>
random_rows(std::size_t rows, std::size_t dim, Rng &rng)
{
    std::vector<float> x(rows * dim);
    for (float &v : x)
        v = static_cast<float>(rng.uniform(-2, 2));
    for (std::size_t i = 0; i < x.size(); i += 7)
        x[i] = i % 2 == 0 ? 0.0f : -0.0f;
    return x;
}

constexpr std::size_t kRowCounts[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 50};

TEST(Linear, ForwardRowsEqualsForwardPerRow)
{
    // The 4-row tiles, the out_dim % 4 tail and the leftover rows all
    // give forward()'s bits, row by row — a -0.0 bias included.
    Rng rng(5);
    for (std::size_t in : {1u, 3u, 64u}) {
        for (std::size_t od : {1u, 7u, 16u, 64u}) {
            Linear lin(in, od);
            lin.init_glorot(rng);
            lin.bias_ref()[0] = -0.0f;
            for (std::size_t rows : kRowCounts) {
                SCOPED_TRACE(::testing::Message() << "in=" << in << " out="
                                                  << od << " rows=" << rows);
                const std::vector<float> x = random_rows(rows, in, rng);
                std::vector<float> block(rows * od);
                lin.forward_rows(x.data(), block.data(), rows);
                std::vector<float> each(rows * od);
                for (std::size_t r = 0; r < rows; ++r)
                    lin.forward(x.data() + r * in, each.data() + r * od);
                EXPECT_EQ(block, each);
            }
        }
    }
}

TEST(Mlp, ForwardRowsEqualsForwardPerRow)
{
    // The prediction heads ({64, 1}, {80, 40, 20, 1}), GIN's
    // dim -> 2 dim -> dim MLP and a narrow one with a final
    // activation.
    Rng rng(6);
    std::vector<Mlp> mlps;
    mlps.emplace_back(std::vector<std::size_t>{64, 1});
    mlps.emplace_back(std::vector<std::size_t>{80, 40, 20, 1});
    mlps.emplace_back(std::vector<std::size_t>{16, 32, 16});
    mlps.emplace_back(std::vector<std::size_t>{7, 7, 7}, Activation::kElu,
                      Activation::kSigmoid);
    for (Mlp &mlp : mlps) {
        mlp.init_glorot(rng);
        for (std::size_t rows : kRowCounts) {
            SCOPED_TRACE(::testing::Message() << "in=" << mlp.in_dim()
                                              << " layers=" << mlp.num_layers()
                                              << " rows=" << rows);
            const std::vector<float> x =
                random_rows(rows, mlp.in_dim(), rng);
            const std::size_t od = mlp.out_dim();
            std::vector<float> block(rows * od);
            mlp.forward_rows(x.data(), block.data(), rows);
            std::vector<float> each(rows * od);
            for (std::size_t r = 0; r < rows; ++r) {
                const Vec row(x.begin() + r * mlp.in_dim(),
                              x.begin() + (r + 1) * mlp.in_dim());
                const Vec y = mlp.forward(row);
                std::copy(y.begin(), y.end(), each.begin() + r * od);
            }
            EXPECT_EQ(block, each);
        }
    }
}

TEST(Linear, GlorotBoundsRespectFanInOut)
{
    Rng rng(1);
    Linear lin(50, 50);
    lin.init_glorot(rng);
    double limit = std::sqrt(6.0 / 100.0);
    for (std::size_t o = 0; o < 50; ++o)
        for (std::size_t i = 0; i < 50; ++i) {
            EXPECT_LE(lin.weight()(o, i), limit);
            EXPECT_GE(lin.weight()(o, i), -limit);
        }
}

TEST(Linear, GlorotIsSeedDeterministic)
{
    Rng a(9), b(9);
    Linear la(8, 8), lb(8, 8);
    la.init_glorot(a);
    lb.init_glorot(b);
    EXPECT_EQ(la.weight(), lb.weight());
}

TEST(Linear, MacsCount)
{
    EXPECT_EQ(Linear(10, 7).macs(), 70u);
    EXPECT_EQ(Linear(1, 1).macs(), 1u);
}

TEST(Mlp, DimsAndLayerCount)
{
    Mlp mlp({80, 40, 20, 1});
    EXPECT_EQ(mlp.num_layers(), 3u);
    EXPECT_EQ(mlp.in_dim(), 80u);
    EXPECT_EQ(mlp.out_dim(), 1u);
    EXPECT_EQ(mlp.macs(), 80u * 40 + 40 * 20 + 20 * 1);
}

TEST(Mlp, RequiresTwoDims)
{
    EXPECT_THROW(Mlp({5}), std::invalid_argument);
}

TEST(Mlp, SingleLayerEqualsLinear)
{
    Rng rng(4);
    Mlp mlp({6, 3});
    mlp.init_glorot(rng);
    Vec x{1, -1, 2, -2, 0.5, 0};
    EXPECT_EQ(mlp.forward(x), mlp.layer(0).forward(x));
}

TEST(Mlp, HiddenActivationApplied)
{
    // Weights forcing a negative hidden pre-activation: ReLU must zero
    // it, so the output equals the final bias.
    Mlp mlp({1, 1, 1}, Activation::kRelu);
    mlp.layer(0).weight()(0, 0) = -1.0f;
    mlp.layer(1).weight()(0, 0) = 5.0f;
    mlp.layer(1).bias_ref() = {2.0f};
    Vec y = mlp.forward({3.0f});
    EXPECT_FLOAT_EQ(y[0], 2.0f);
}

TEST(Mlp, FinalActivationOptional)
{
    Mlp relu_out({1, 1}, Activation::kRelu, Activation::kRelu);
    relu_out.layer(0).weight()(0, 0) = -1.0f;
    EXPECT_FLOAT_EQ(relu_out.forward({2.0f})[0], 0.0f);

    Mlp identity_out({1, 1}, Activation::kRelu, Activation::kIdentity);
    identity_out.layer(0).weight()(0, 0) = -1.0f;
    EXPECT_FLOAT_EQ(identity_out.forward({2.0f})[0], -2.0f);
}

} // namespace
} // namespace flowgnn
