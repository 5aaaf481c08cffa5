/**
 * @file
 * Multi-layer perceptron built from Linear layers, used for GIN node
 * transformations and for model prediction heads.
 */
#ifndef FLOWGNN_TENSOR_MLP_H
#define FLOWGNN_TENSOR_MLP_H

#include <vector>

#include "tensor/activations.h"
#include "tensor/linear.h"

namespace flowgnn {

/**
 * MLP with a hidden activation applied between layers (not after the
 * final layer unless final_activation is set).
 */
class Mlp
{
  public:
    Mlp() = default;

    /**
     * Builds an MLP with the given layer widths, e.g. {80, 40, 20, 1}
     * creates Linear(80,40) -> act -> Linear(40,20) -> act ->
     * Linear(20,1).
     */
    Mlp(const std::vector<std::size_t> &dims,
        Activation hidden_activation = Activation::kRelu,
        Activation final_activation = Activation::kIdentity);

    void init_glorot(Rng &rng);

    Vec forward(const Vec &x) const;

    /** Raw-buffer forward, the same arithmetic bit for bit: x holds
     * in_dim() floats, out receives out_dim(). */
    void forward(const float *x, float *out) const;

    /** Row-block forward: `rows` rows of in_dim() floats into `rows`
     * rows of out_dim(), tiles of Linear::kTileRows rows through every
     * layer in turn; bit-identical to forward() on each row. */
    void forward_rows(const float *x, float *out, std::size_t rows) const;

    std::size_t in_dim() const;
    std::size_t out_dim() const;
    std::size_t num_layers() const { return layers_.size(); }
    const Linear &layer(std::size_t i) const { return layers_.at(i); }
    Linear &layer(std::size_t i) { return layers_.at(i); }
    Activation hidden_activation() const { return hidden_activation_; }

    /** Total multiply-accumulates per forward pass. */
    std::size_t macs() const;

  private:
    std::vector<Linear> layers_;
    Activation hidden_activation_ = Activation::kRelu;
    Activation final_activation_ = Activation::kIdentity;
};

} // namespace flowgnn

#endif // FLOWGNN_TENSOR_MLP_H
