/**
 * @file
 * Activation functions and softmax used by the GNN layer kernels.
 */
#ifndef FLOWGNN_TENSOR_ACTIVATIONS_H
#define FLOWGNN_TENSOR_ACTIVATIONS_H

#include "tensor/matrix.h"

namespace flowgnn {

/** Supported activation kinds for configurable layers. */
enum class Activation {
    kIdentity,
    kRelu,
    kLeakyRelu, ///< slope 0.2, matching the GAT paper.
    kElu,
    kSigmoid,
    kTanh,
};

/** Human-readable name of an activation kind. */
const char *activation_name(Activation act);

/** Applies the activation element-wise in place. */
void apply_activation(Vec &x, Activation act);

/** Raw-buffer form: activates `count` floats at `x` in place. */
void apply_activation(float *x, std::size_t count, Activation act);

/** Scalar activation evaluation. */
float activate(float x, Activation act);

/** activate(x, Activation::kLeakyRelu), inline for the per-edge GAT
 * attention logits. */
inline float
leaky_relu(float x)
{
    return x > 0.0f ? x : 0.2f * x;
}

/** Returns the activated copy of x. */
Vec activated(const Vec &x, Activation act);

/**
 * Numerically stable softmax over x (subtracts the max before
 * exponentiation). Used for GAT attention normalization.
 */
Vec softmax(const Vec &x);

} // namespace flowgnn

#endif // FLOWGNN_TENSOR_ACTIVATIONS_H
