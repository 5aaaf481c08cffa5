/**
 * @file
 * Dense row-major matrix and vector types used throughout the library.
 *
 * These are deliberately small and dependency-free: FlowGNN's workloads
 * are many small graphs with embedding dimensions of 16-100, so a
 * cache-friendly contiguous buffer with simple loops is both sufficient
 * and easy to keep bit-identical between the reference library and the
 * dataflow engine.
 */
#ifndef FLOWGNN_TENSOR_MATRIX_H
#define FLOWGNN_TENSOR_MATRIX_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <vector>

namespace flowgnn {

/** Dense float vector. Alias kept simple so slices interoperate with STL. */
using Vec = std::vector<float>;

/**
 * Dense row-major matrix of floats.
 *
 * Rows are contiguous so a row can be exposed as a cheap span for the
 * per-node embedding operations that dominate GNN compute.
 */
class Matrix
{
  public:
    Matrix() = default;

    /** Creates a rows x cols matrix initialized to the given value. */
    Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float &
    operator()(std::size_t r, std::size_t c)
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    float
    operator()(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    /** Pointer to the first element of row r. */
    float *
    row(std::size_t r)
    {
        assert(r < rows_);
        return data_.data() + r * cols_;
    }

    const float *
    row(std::size_t r) const
    {
        assert(r < rows_);
        return data_.data() + r * cols_;
    }

    /** Copies row r into a standalone vector. */
    Vec row_vec(std::size_t r) const;

    /** Overwrites row r with the given vector (must match cols()). */
    void set_row(std::size_t r, const Vec &v);

    /** Sets every element to the given value. */
    void fill(float value);

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    bool operator==(const Matrix &other) const = default;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/**
 * y[i] += x[i] for i < n, four lanes at a time. Lane-wise float
 * addition rounds exactly as the scalar loop does, so the bits are
 * the same; the rows must not overlap.
 */
inline void
add_row(float *y, const float *x, std::size_t n)
{
    using Lanes = float __attribute__((vector_size(16)));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        Lanes a;
        Lanes b;
        std::memcpy(&a, y + i, sizeof a);
        std::memcpy(&b, x + i, sizeof b);
        a += b;
        std::memcpy(y + i, &a, sizeof a);
    }
    for (; i < n; ++i)
        y[i] += x[i];
}

/** out[i] = x[i] * s for i < n, four lanes at a time; the same bits
 * as the scalar loop. */
inline void
scale_row(float *out, const float *x, float s, std::size_t n)
{
    using Lanes = float __attribute__((vector_size(16)));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        Lanes a;
        std::memcpy(&a, x + i, sizeof a);
        a *= s;
        std::memcpy(out + i, &a, sizeof a);
    }
    for (; i < n; ++i)
        out[i] = x[i] * s;
}

/** y[i] += a * x[i] for i < n, four lanes at a time: a lane-wise
 * multiply, then a lane-wise add, rounding as the scalar loop does;
 * the rows must not overlap. */
inline void
axpy_row(float *y, float a, const float *x, std::size_t n)
{
    using Lanes = float __attribute__((vector_size(16)));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        Lanes acc;
        Lanes b;
        std::memcpy(&acc, y + i, sizeof acc);
        std::memcpy(&b, x + i, sizeof b);
        acc += a * b;
        std::memcpy(y + i, &acc, sizeof acc);
    }
    for (; i < n; ++i)
        y[i] += a * x[i];
}

/** y[i] /= s for i < n, four lanes at a time; the same bits as the
 * scalar loop (a true division, not a multiply by 1/s). */
inline void
div_row(float *y, float s, std::size_t n)
{
    using Lanes = float __attribute__((vector_size(16)));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        Lanes a;
        std::memcpy(&a, y + i, sizeof a);
        a /= s;
        std::memcpy(y + i, &a, sizeof a);
    }
    for (; i < n; ++i)
        y[i] /= s;
}

/**
 * y[i] = std::max(y[i], x[i]) for i < n, four lanes at a time as the
 * select `y < x ? x : y` — std::max's own definition, so a NaN or a
 * signed zero resolves exactly as it does there. The rows must not
 * overlap.
 */
inline void
max_row(float *y, const float *x, std::size_t n)
{
    using Lanes = float __attribute__((vector_size(16)));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        Lanes a;
        Lanes b;
        std::memcpy(&a, y + i, sizeof a);
        std::memcpy(&b, x + i, sizeof b);
        a = a < b ? b : a;
        std::memcpy(y + i, &a, sizeof a);
    }
    for (; i < n; ++i)
        y[i] = std::max(y[i], x[i]);
}

/** y[i] = std::min(y[i], x[i]) for i < n as the select `x < y ? x :
 * y` (std::min's definition), four lanes at a time. */
inline void
min_row(float *y, const float *x, std::size_t n)
{
    using Lanes = float __attribute__((vector_size(16)));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        Lanes a;
        Lanes b;
        std::memcpy(&a, y + i, sizeof a);
        std::memcpy(&b, x + i, sizeof b);
        a = b < a ? b : a;
        std::memcpy(y + i, &a, sizeof a);
    }
    for (; i < n; ++i)
        y[i] = std::min(y[i], x[i]);
}

/**
 * A scratch float row for per-node and per-edge steps: on the stack
 * up to kStackFloats, on the heap past that, so the hot loops do not
 * allocate at model widths. Contents start uninitialized.
 */
class ScratchRow
{
  public:
    static constexpr std::size_t kStackFloats = 2048;

    explicit ScratchRow(std::size_t size)
        : data_(size <= kStackFloats ? stack_
                                     : (heap_.resize(size), heap_.data()))
    {
    }
    ScratchRow(const ScratchRow &) = delete;
    ScratchRow &operator=(const ScratchRow &) = delete;

    float *data() { return data_; }
    float &operator[](std::size_t i) { return data_[i]; }

  private:
    float stack_[kStackFloats];
    std::vector<float> heap_;
    float *data_;
};

} // namespace flowgnn

#endif // FLOWGNN_TENSOR_MATRIX_H
