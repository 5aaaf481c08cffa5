/**
 * @file
 * Fully-connected (linear) layer with deterministic initialization.
 *
 * The forward pass is written in the same input-stationary order the
 * FlowGNN NT unit uses on the FPGA (each input element updates the
 * whole output vector), so reference and engine results are
 * bit-identical.
 */
#ifndef FLOWGNN_TENSOR_LINEAR_H
#define FLOWGNN_TENSOR_LINEAR_H

#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace flowgnn {

/**
 * Linear layer: y = W x + b with W of shape [out_dim x in_dim].
 */
class Linear
{
  public:
    Linear() = default;

    /** Creates a layer with zero weights. */
    Linear(std::size_t in_dim, std::size_t out_dim);

    /** Glorot-uniform initialization using the provided RNG stream. */
    void init_glorot(Rng &rng);

    std::size_t in_dim() const { return in_dim_; }
    std::size_t out_dim() const { return out_dim_; }

    /**
     * Forward pass in input-stationary order: out starts at the bias
     * and each input element accumulates its weight column.
     */
    Vec forward(const Vec &x) const;

    /** Raw-buffer forward, the same arithmetic bit for bit: x holds
     * in_dim() floats, out receives out_dim(). */
    void forward(const float *x, float *out) const;

    /**
     * Partial input-stationary accumulation: folds inputs
     * [begin, end) of x into acc. Calling with the full range starting
     * from a bias-initialized acc equals forward(). The NT unit uses
     * this to model Papply-wide accumulation.
     */
    void accumulate(Vec &acc, const Vec &x, std::size_t begin,
                    std::size_t end) const;

    /** Returns a copy of the bias; the starting value for accumulate. */
    Vec bias() const { return bias_; }

    Matrix &weight() { return weight_; }
    const Matrix &weight() const { return weight_; }
    Vec &bias_ref() { return bias_; }

    /** Number of multiply-accumulate operations per forward pass. */
    std::size_t macs() const { return in_dim_ * out_dim_; }

  private:
    std::size_t in_dim_ = 0;
    std::size_t out_dim_ = 0;
    Matrix weight_; ///< [out_dim x in_dim]
    Vec bias_;
};

} // namespace flowgnn

#endif // FLOWGNN_TENSOR_LINEAR_H
