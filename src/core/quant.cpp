#include "core/quant.hpp"

#include <cmath>
#include <stdexcept>

namespace dlrmopt::core
{

std::string
embDtypeName(EmbDtype dtype)
{
    switch (dtype) {
      case EmbDtype::Fp32:
        return "fp32";
      case EmbDtype::Bf16:
        return "bf16";
      case EmbDtype::Int8:
        return "int8";
    }
    return "unknown";
}

EmbDtype
parseEmbDtype(const std::string& name)
{
    if (name == "fp32")
        return EmbDtype::Fp32;
    if (name == "bf16")
        return EmbDtype::Bf16;
    if (name == "int8")
        return EmbDtype::Int8;
    throw std::invalid_argument(
        "unknown dtype '" + name + "' (expected fp32, bf16, or int8)");
}

std::size_t
embDtypeBits(EmbDtype dtype)
{
    switch (dtype) {
      case EmbDtype::Bf16:
        return 16;
      case EmbDtype::Int8:
        return 8;
      default:
        return 32;
    }
}

QuantParams
quantizeBlockInt8(const float *src, std::size_t n, std::uint8_t *dst)
{
    QuantParams p;
    if (n == 0)
        return p;
    float lo = src[0], hi = src[0];
    for (std::size_t i = 1; i < n; ++i) {
        lo = std::fmin(lo, src[i]);
        hi = std::fmax(hi, src[i]);
    }
    p.bias = lo;
    p.scale = hi > lo ? (hi - lo) / 255.0f : 1.0f;
    const float inv = 1.0f / p.scale;
    for (std::size_t i = 0; i < n; ++i) {
        const float q = std::nearbyintf((src[i] - p.bias) * inv);
        const float c = std::fmin(std::fmax(q, 0.0f), 255.0f);
        dst[i] = static_cast<std::uint8_t>(c);
    }
    return p;
}

} // namespace dlrmopt::core
