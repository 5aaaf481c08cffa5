#include "tensor/activations.h"

#include <algorithm>
#include <cmath>

namespace flowgnn {

const char *
activation_name(Activation act)
{
    switch (act) {
      case Activation::kIdentity: return "identity";
      case Activation::kRelu: return "relu";
      case Activation::kLeakyRelu: return "leaky_relu";
      case Activation::kElu: return "elu";
      case Activation::kSigmoid: return "sigmoid";
      case Activation::kTanh: return "tanh";
    }
    return "unknown";
}

float
activate(float x, Activation act)
{
    switch (act) {
      case Activation::kIdentity:
        return x;
      case Activation::kRelu:
        return x > 0.0f ? x : 0.0f;
      case Activation::kLeakyRelu:
        return leaky_relu(x);
      case Activation::kElu:
        return x > 0.0f ? x : std::expm1(x);
      case Activation::kSigmoid:
        return 1.0f / (1.0f + std::exp(-x));
      case Activation::kTanh:
        return std::tanh(x);
    }
    return x;
}

void
apply_activation(Vec &x, Activation act)
{
    apply_activation(x.data(), x.size(), act);
}

void
apply_activation(float *x, std::size_t count, Activation act)
{
    if (act == Activation::kIdentity)
        return;
    for (std::size_t i = 0; i < count; ++i)
        x[i] = activate(x[i], act);
}

Vec
activated(const Vec &x, Activation act)
{
    Vec out = x;
    apply_activation(out, act);
    return out;
}

Vec
softmax(const Vec &x)
{
    Vec out(x.size());
    if (x.empty())
        return out;
    float mx = *std::max_element(x.begin(), x.end());
    float total = 0.0f;
    for (std::size_t i = 0; i < x.size(); ++i) {
        out[i] = std::exp(x[i] - mx);
        total += out[i];
    }
    for (auto &v : out)
        v /= total;
    return out;
}

} // namespace flowgnn
