/**
 * @file
 * Fully-connected (linear) layer with deterministic initialization.
 *
 * Every output element starts at its bias and accumulates its inputs
 * in index order, the NT unit's input-stationary order on the FPGA.
 * The per-row forward and the row-block forward_rows keep that order
 * for each element — the block form only reuses each weight across a
 * tile of rows, with lane-wise IEEE multiplies and adds — so both give
 * the same bits.
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

    /** Rows per register tile of forward_rows. */
    static constexpr std::size_t kTileRows = 4;

    /**
     * Row-block forward: x holds `rows` rows of in_dim() floats and out
     * receives `rows` rows of out_dim() (row-major, not overlapping).
     * Bit-identical to forward() on each row: full tiles of kTileRows
     * rows are transposed so each weight is loaded once per tile and
     * feeds one lane per row; leftover rows and the out_dim() % 4
     * outputs take the per-row loop.
     */
    void forward_rows(const float *x, float *out, std::size_t rows) const;

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
