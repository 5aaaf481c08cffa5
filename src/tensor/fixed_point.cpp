#include "tensor/fixed_point.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace flowgnn {

double
FixedPointFormat::ulp() const
{
    return std::ldexp(1.0, -frac_bits);
}

double
FixedPointFormat::max_value() const
{
    return std::ldexp(1.0, int_bits() - 1) - ulp();
}

double
FixedPointFormat::min_value() const
{
    return -std::ldexp(1.0, int_bits() - 1);
}

bool
FixedPointFormat::valid() const
{
    return total_bits >= 2 && total_bits <= 32 && frac_bits >= 0 &&
           frac_bits < total_bits;
}

const char *
FixedPointFormat::name_into(char *buffer, std::size_t size) const
{
    std::snprintf(buffer, size, "Q%d.%d", total_bits, frac_bits);
    return buffer;
}

float
quantize(float value, const FixedPointFormat &format)
{
    quantize_inplace(&value, 1, format);
    return value;
}

void
quantize_inplace(Vec &values, const FixedPointFormat &format)
{
    quantize_inplace(values.data(), values.size(), format);
}

void
quantize_inplace(float *values, std::size_t count,
                 const FixedPointFormat &format)
{
    // The format constants are loop-invariant; hoisting them keeps
    // every element's arithmetic, and so its bits, unchanged.
    const double ulp = format.ulp();
    const double lo = format.min_value();
    const double hi = format.max_value();
    for (std::size_t i = 0; i < count; ++i) {
        double scaled = static_cast<double>(values[i]) / ulp;
        double rounded = std::nearbyint(scaled) * ulp;
        values[i] = static_cast<float>(std::clamp(rounded, lo, hi));
    }
}

} // namespace flowgnn
