/**
 * @file
 * Reduced-precision storage types for embedding rows and the
 * quantization helpers of the fused-dequant embedding_bag kernels.
 * The MLPs run fp32 at every dtype.
 *
 * Two storage dtypes below fp32:
 *
 *  - bf16: the upper 16 bits of the IEEE-754 fp32 pattern (sign,
 *    exponent, truncated 7-bit mantissa). Conversion is a pure bit
 *    shift both ways — no rounding step — so widening a stored bf16
 *    value is exact and bitwise-deterministic on every ISA.
 *
 *  - int8: asymmetric per-block affine quantization. A block (one
 *    embedding row) stores uint8 codes q plus (scale, bias) metadata
 *    with value ≈ q * scale + bias, where scale = (max - min) / 255
 *    and bias = min. Dequantization is a single fma per element,
 *    which is what lets the bag kernels fuse it into the accumulate
 *    without a second pass over the bytes.
 *
 * Codes are quantized with nearbyintf (round-to-nearest-even), the
 * scalar twin of the vector cvtps rounding mode, so quantization is
 * also bitwise-deterministic.
 */

#ifndef DLRMOPT_CORE_QUANT_HPP
#define DLRMOPT_CORE_QUANT_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace dlrmopt::core
{

/** Storage precision of an embedding table. The MLPs run fp32 at
 *  every dtype. */
enum class EmbDtype
{
    Fp32,
    Bf16,
    Int8,
};

/** Human-readable name ("fp32", "bf16", "int8"). */
std::string embDtypeName(EmbDtype dtype);

/** Parses "fp32" / "bf16" / "int8".
 *  @throws std::invalid_argument on anything else. */
EmbDtype parseEmbDtype(const std::string& name);

/** Stored payload bits per element (32 / 16 / 8). */
std::size_t embDtypeBits(EmbDtype dtype);

/** fp32 -> bf16 by mantissa truncation (keep the upper 16 bits). */
inline std::uint16_t
fp32ToBf16(float v)
{
    std::uint32_t u;
    std::memcpy(&u, &v, sizeof(u));
    return static_cast<std::uint16_t>(u >> 16);
}

/** bf16 -> fp32 widening (shift back into the upper half; exact). */
inline float
bf16ToFp32(std::uint16_t b)
{
    const std::uint32_t u = static_cast<std::uint32_t>(b) << 16;
    float v;
    std::memcpy(&v, &u, sizeof(v));
    return v;
}

/** Affine dequantization parameters of one int8 block:
 *  value = code * scale + bias. */
struct QuantParams
{
    float scale = 1.0f;
    float bias = 0.0f;
};

/**
 * Quantizes @p n floats to uint8 codes in [0, 255] with the affine
 * min/max scheme: scale = (max - min) / 255, bias = min,
 * code = nearbyintf((v - bias) / scale). A constant block (max == min)
 * gets scale 1 and all-zero codes, so dequantization is exact.
 */
QuantParams quantizeBlockInt8(const float *src, std::size_t n,
                              std::uint8_t *dst);

} // namespace dlrmopt::core

#endif // DLRMOPT_CORE_QUANT_HPP
