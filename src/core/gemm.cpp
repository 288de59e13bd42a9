#include "core/gemm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "core/simd.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define DLRMOPT_GEMM_X86 1
#else
#define DLRMOPT_GEMM_X86 0
#endif

namespace dlrmopt::core
{

namespace
{

/** Tile sizes chosen so one (in-tile x out-tile) weight block stays in
 *  L1D alongside the activation rows (blocked baseline kernel). */
constexpr std::size_t tileIn = 256;
constexpr std::size_t tileOut = 64;

constexpr std::size_t NR = PackedWeights::panelWidth;

/**
 * One microkernel invocation: rows [0, MR) of @p a against one packed
 * panel chunk, producing/updating an MR x NR block of @p c.
 *
 * @param a First sample's activations at the chunk's k offset.
 * @param lda Activation row stride (the layer's in_dim).
 * @param pb Packed panel data at the chunk's k offset (k-major).
 * @param kk Chunk depth (may be 0: epilogue-only call).
 * @param c Output block (row stride @p ldc = out_dim).
 * @param nv Valid columns of the panel (< NR only for the tail).
 * @param bias Panel's bias slice (already offset), or nullptr.
 * @param first True on the first k chunk (start from zero instead of
 *        reloading partial sums from c).
 * @param last True on the final k chunk (apply the fused epilogue:
 *        bias add + branchless ReLU in-register before the store).
 */
using MicroFn = void (*)(const float *a, std::size_t lda,
                         const float *pb, std::size_t kk, float *c,
                         std::size_t ldc, std::size_t nv,
                         const float *bias, bool relu, bool first,
                         bool last);

/**
 * Scalar mirror of the vector microkernels: per output element, the
 * identical fmaf chain over ascending k, then "+ bias" and the
 * branchless "acc > 0 ? acc : 0" ReLU — the same per-lane arithmetic
 * the masked AVX-512/AVX2 paths perform, so all levels are bitwise
 * equal.
 *
 * TA selects the activation layout: m-major (element (m,k) at
 * a[m*lda + k], lda = in_dim) or n-major/transposed (element (m,k) at
 * a[k*lda + m], lda = batch). Only the load address changes — the fmaf
 * chain itself is identical, so both layouts produce bitwise-equal
 * outputs for equal activation values.
 */
template <int MR, bool TA>
void
microScalar(const float *a, std::size_t lda, const float *pb,
            std::size_t kk, float *c, std::size_t ldc, std::size_t nv,
            const float *bias, bool relu, bool first, bool last)
{
    for (int m = 0; m < MR; ++m) {
        const std::size_t mu = static_cast<std::size_t>(m);
        float *cm = c + mu * ldc;
        for (std::size_t j = 0; j < nv; ++j) {
            float acc = first ? 0.0f : cm[j];
            for (std::size_t k = 0; k < kk; ++k) {
                const float av =
                    TA ? a[k * lda + mu] : a[mu * lda + k];
                acc = std::fmaf(av, pb[k * NR + j], acc);
            }
            if (last) {
                if (bias)
                    acc += bias[j];
                if (relu)
                    acc = acc > 0.0f ? acc : 0.0f;
            }
            cm[j] = acc;
        }
    }
}

constexpr std::array<MicroFn, 4> kScalarFns = {
    microScalar<1, false>, microScalar<2, false>,
    microScalar<3, false>, microScalar<4, false>};
constexpr std::array<MicroFn, 4> kScalarTFns = {
    microScalar<1, true>, microScalar<2, true>,
    microScalar<3, true>, microScalar<4, true>};

#if DLRMOPT_GEMM_X86 && defined(__AVX2__)

/** Lane mask covering the first @p valid of 8 lanes (AVX2 maskload
 *  form: top bit of each 32-bit lane). */
inline __m256i
avx2Mask(std::size_t valid)
{
    alignas(32) static constexpr std::int32_t table[16] = {
        -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(table + (8 - valid)));
}

/** 4x16 AVX2 microkernel: two ymm accumulators per sample row.
 *  TA flips the activation broadcast address to the n-major layout
 *  (same FMA order, so bitwise-equal outputs). */
template <int MR, bool TA>
void
microAvx2(const float *a, std::size_t lda, const float *pb,
          std::size_t kk, float *c, std::size_t ldc, std::size_t nv,
          const float *bias, bool relu, bool first, bool last)
{
    const std::size_t v0 = nv < 8 ? nv : 8;
    const std::size_t v1 = nv > 8 ? nv - 8 : 0;
    const __m256i m0 = avx2Mask(v0);
    const __m256i m1 = avx2Mask(v1);

    __m256 acc[MR][2];
    for (int m = 0; m < MR; ++m) {
        float *cm = c + static_cast<std::size_t>(m) * ldc;
        acc[m][0] = first ? _mm256_setzero_ps()
                          : _mm256_maskload_ps(cm, m0);
        acc[m][1] = first ? _mm256_setzero_ps()
                          : _mm256_maskload_ps(cm + 8, m1);
    }
    for (std::size_t k = 0; k < kk; ++k) {
        const __m256 w0 = _mm256_loadu_ps(pb + k * NR);
        const __m256 w1 = _mm256_loadu_ps(pb + k * NR + 8);
        for (int m = 0; m < MR; ++m) {
            const std::size_t mu = static_cast<std::size_t>(m);
            const __m256 av = _mm256_broadcast_ss(
                TA ? a + k * lda + mu : a + mu * lda + k);
            acc[m][0] = _mm256_fmadd_ps(av, w0, acc[m][0]);
            acc[m][1] = _mm256_fmadd_ps(av, w1, acc[m][1]);
        }
    }
    if (last) {
        if (bias) {
            const __m256 b0 = _mm256_maskload_ps(bias, m0);
            const __m256 b1 = _mm256_maskload_ps(bias + 8, m1);
            for (int m = 0; m < MR; ++m) {
                acc[m][0] = _mm256_add_ps(acc[m][0], b0);
                acc[m][1] = _mm256_add_ps(acc[m][1], b1);
            }
        }
        if (relu) {
            const __m256 z = _mm256_setzero_ps();
            for (int m = 0; m < MR; ++m) {
                acc[m][0] = _mm256_max_ps(acc[m][0], z);
                acc[m][1] = _mm256_max_ps(acc[m][1], z);
            }
        }
    }
    for (int m = 0; m < MR; ++m) {
        float *cm = c + static_cast<std::size_t>(m) * ldc;
        _mm256_maskstore_ps(cm, m0, acc[m][0]);
        _mm256_maskstore_ps(cm + 8, m1, acc[m][1]);
    }
}

constexpr std::array<MicroFn, 4> kAvx2Fns = {
    microAvx2<1, false>, microAvx2<2, false>, microAvx2<3, false>,
    microAvx2<4, false>};
constexpr std::array<MicroFn, 4> kAvx2TFns = {
    microAvx2<1, true>, microAvx2<2, true>, microAvx2<3, true>,
    microAvx2<4, true>};
#define DLRMOPT_GEMM_HAVE_AVX2 1
#else
#define DLRMOPT_GEMM_HAVE_AVX2 0
#endif

#if DLRMOPT_GEMM_X86 && defined(__AVX512F__)

/** 6x16 AVX-512 microkernel: one zmm accumulator per sample row.
 *  TA flips the activation broadcast address to the n-major layout
 *  (same FMA order, so bitwise-equal outputs). */
template <int MR, bool TA>
void
microAvx512(const float *a, std::size_t lda, const float *pb,
            std::size_t kk, float *c, std::size_t ldc, std::size_t nv,
            const float *bias, bool relu, bool first, bool last)
{
    const __mmask16 mask =
        nv >= NR ? static_cast<__mmask16>(0xffff)
                 : static_cast<__mmask16>((1u << nv) - 1u);

    __m512 acc[MR];
    for (int m = 0; m < MR; ++m) {
        acc[m] = first
                     ? _mm512_setzero_ps()
                     : _mm512_maskz_loadu_ps(
                           mask, c + static_cast<std::size_t>(m) * ldc);
    }
    for (std::size_t k = 0; k < kk; ++k) {
        const __m512 wv = _mm512_loadu_ps(pb + k * NR);
        for (int m = 0; m < MR; ++m) {
            const std::size_t mu = static_cast<std::size_t>(m);
            const __m512 av = _mm512_set1_ps(
                TA ? a[k * lda + mu] : a[mu * lda + k]);
            acc[m] = _mm512_fmadd_ps(av, wv, acc[m]);
        }
    }
    if (last) {
        if (bias) {
            const __m512 bv = _mm512_maskz_loadu_ps(mask, bias);
            for (int m = 0; m < MR; ++m)
                acc[m] = _mm512_add_ps(acc[m], bv);
        }
        if (relu) {
            const __m512 z = _mm512_setzero_ps();
            for (int m = 0; m < MR; ++m)
                acc[m] = _mm512_max_ps(acc[m], z);
        }
    }
    for (int m = 0; m < MR; ++m) {
        _mm512_mask_storeu_ps(c + static_cast<std::size_t>(m) * ldc,
                              mask, acc[m]);
    }
}

constexpr std::array<MicroFn, 6> kAvx512Fns = {
    microAvx512<1, false>, microAvx512<2, false>, microAvx512<3, false>,
    microAvx512<4, false>, microAvx512<5, false>, microAvx512<6, false>};
constexpr std::array<MicroFn, 6> kAvx512TFns = {
    microAvx512<1, true>, microAvx512<2, true>, microAvx512<3, true>,
    microAvx512<4, true>, microAvx512<5, true>, microAvx512<6, true>};
#define DLRMOPT_GEMM_HAVE_AVX512 1
#else
#define DLRMOPT_GEMM_HAVE_AVX512 0
#endif

/** Per-level kernel family: MR-indexed variants plus the widest MR. */
struct MicroSet
{
    const MicroFn *fns;
    std::size_t maxMr;
};

MicroSet
microSetFor(SimdLevel level, bool trans = false)
{
#if DLRMOPT_GEMM_HAVE_AVX512
    if (level == SimdLevel::Avx512) {
        return trans ? MicroSet{kAvx512TFns.data(), kAvx512TFns.size()}
                     : MicroSet{kAvx512Fns.data(), kAvx512Fns.size()};
    }
#endif
#if DLRMOPT_GEMM_HAVE_AVX2
    if (level != SimdLevel::Scalar) {
        return trans ? MicroSet{kAvx2TFns.data(), kAvx2TFns.size()}
                     : MicroSet{kAvx2Fns.data(), kAvx2Fns.size()};
    }
#endif
    (void)level;
    return trans ? MicroSet{kScalarTFns.data(), kScalarTFns.size()}
                 : MicroSet{kScalarFns.data(), kScalarFns.size()};
}

/**
 * Packed-GEMM driver: panels outer, k-chunks middle (the active
 * kc x NR panel slice stays cache-resident across the m-tiles that
 * reuse it), microtiles inner. Chunked partial sums round-trip
 * through c exactly (a float store/reload is value-preserving), so
 * the per-element result is independent of kc; the fused epilogue
 * runs only on the final chunk.
 */
void
runPacked(const float *in, std::size_t batch, const PackedWeights& w,
          const float *bias, float *out, bool relu, GemmTile tile,
          const MicroSet& ms, bool trans = false)
{
    const std::size_t K = w.inDim();
    const std::size_t N = w.outDim();
    if (batch == 0 || N == 0)
        return;
    std::size_t mr = tile.mr == 0 ? ms.maxMr : tile.mr;
    mr = std::min({mr, ms.maxMr, batch});
    const std::size_t kc = (tile.kc == 0 || tile.kc > K) ? K : tile.kc;
    // m-major: activation rows stride by the depth. n-major
    // (transposed): feature rows stride by the batch, so the
    // (m0, k0) block starts at column m0 of feature row k0.
    const std::size_t lda = trans ? batch : K;

    for (std::size_t p = 0; p < w.numPanels(); ++p) {
        const std::size_t n0 = p * NR;
        const std::size_t nv = std::min(NR, N - n0);
        const float *pb = w.panel(p);
        const float *pbias = bias ? bias + n0 : nullptr;
        if (K == 0) {
            // Degenerate depth: epilogue only (bias + optional ReLU).
            for (std::size_t m0 = 0; m0 < batch; m0 += mr) {
                const std::size_t mm = std::min(mr, batch - m0);
                ms.fns[mm - 1](in, lda, pb, 0, out + m0 * N + n0, N,
                               nv, pbias, relu, true, true);
            }
            continue;
        }
        for (std::size_t k0 = 0; k0 < K; k0 += kc) {
            const std::size_t kk = std::min(kc, K - k0);
            const bool first = k0 == 0;
            const bool last = k0 + kk == K;
            for (std::size_t m0 = 0; m0 < batch; m0 += mr) {
                const std::size_t mm = std::min(mr, batch - m0);
                const float *ablk = trans ? in + k0 * batch + m0
                                          : in + m0 * K + k0;
                ms.fns[mm - 1](ablk, lda, pb + k0 * NR, kk,
                               out + m0 * N + n0, N, nv, pbias, relu,
                               first, last);
            }
        }
    }
}

} // namespace

PackedWeights::PackedWeights(const float *weights, std::size_t in_dim,
                             std::size_t out_dim)
    : _inDim(in_dim), _outDim(out_dim)
{
    if (weights == nullptr && in_dim * out_dim != 0) {
        throw std::invalid_argument(
            "PackedWeights: null weights for a non-empty shape");
    }
    _data.assign(numPanels() * in_dim * panelWidth, 0.0f);
    for (std::size_t p = 0; p < numPanels(); ++p) {
        const std::size_t n0 = p * panelWidth;
        const std::size_t nv = std::min(panelWidth, out_dim - n0);
        float *dst = _data.data() + p * in_dim * panelWidth;
        for (std::size_t j = 0; j < nv; ++j) {
            const float *src = weights + (n0 + j) * in_dim;
            for (std::size_t k = 0; k < in_dim; ++k)
                dst[k * panelWidth + j] = src[k];
        }
    }
}

std::size_t
gemmMaxRows(SimdLevel level)
{
    return microSetFor(level).maxMr;
}

GemmTile
defaultGemmTile(std::size_t batch, std::size_t in_dim,
                std::size_t /*out_dim*/, SimdLevel level)
{
    GemmTile t;
    t.mr = std::min(gemmMaxRows(level),
                    std::max<std::size_t>(batch, 1));
    // m = 1 is GEMV-shaped: every panel row is consumed exactly once,
    // so there is no k-reuse to block for — run the full depth.
    // Batched m: chunk k so the active kc x panelWidth panel slice
    // stays L1-resident across the m-tiles that re-stream it.
    t.kc = batch <= 1 ? in_dim
                      : std::min<std::size_t>(in_dim, tileIn);
    return t;
}

GemmTileCache&
GemmTileCache::instance()
{
    static GemmTileCache cache;
    return cache;
}

int
GemmTileCache::bucketOf(std::size_t batch)
{
    if (batch <= 1)
        return 0;
    if (batch <= 4)
        return 1;
    if (batch <= 16)
        return 2;
    if (batch <= 64)
        return 3;
    return 4;
}

std::size_t
GemmTileCache::bucketRepresentative(int bucket)
{
    static constexpr std::size_t reps[numBuckets] = {1, 4, 16, 64, 128};
    if (bucket < 0)
        bucket = 0;
    if (bucket >= numBuckets)
        bucket = numBuckets - 1;
    return reps[bucket];
}

GemmTile
GemmTileCache::lookup(std::size_t batch, std::size_t in_dim,
                      std::size_t out_dim, SimdLevel level,
                      bool trans) const
{
    const Key key{bucketOf(batch), in_dim, out_dim,
                  static_cast<int>(level), trans ? 1 : 0};
    {
        std::lock_guard<std::mutex> lock(_mu);
        const auto it = _tiles.find(key);
        if (it != _tiles.end())
            return it->second;
    }
    return defaultGemmTile(batch, in_dim, out_dim, level);
}

bool
GemmTileCache::contains(std::size_t batch, std::size_t in_dim,
                        std::size_t out_dim, SimdLevel level,
                        bool trans) const
{
    const Key key{bucketOf(batch), in_dim, out_dim,
                  static_cast<int>(level), trans ? 1 : 0};
    std::lock_guard<std::mutex> lock(_mu);
    return _tiles.count(key) != 0;
}

void
GemmTileCache::install(std::size_t batch, std::size_t in_dim,
                       std::size_t out_dim, SimdLevel level,
                       GemmTile tile, bool trans)
{
    const Key key{bucketOf(batch), in_dim, out_dim,
                  static_cast<int>(level), trans ? 1 : 0};
    std::lock_guard<std::mutex> lock(_mu);
    _tiles[key] = tile;
}

std::size_t
GemmTileCache::size() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _tiles.size();
}

void
GemmTileCache::clear()
{
    std::lock_guard<std::mutex> lock(_mu);
    _tiles.clear();
}

void
denseLayerForwardPacked(const float *in, std::size_t batch,
                        const PackedWeights& w, const float *bias,
                        float *out, bool relu)
{
    const SimdLevel level = currentSimdLevel();
    runPacked(in, batch, w, bias, out, relu,
              GemmTileCache::instance().lookup(batch, w.inDim(),
                                               w.outDim(), level),
              microSetFor(level));
}

void
denseLayerForwardPackedLevel(SimdLevel level, const float *in,
                             std::size_t batch, const PackedWeights& w,
                             const float *bias, float *out, bool relu,
                             const GemmTile& tile)
{
    runPacked(in, batch, w, bias, out, relu, tile, microSetFor(level));
}

void
denseLayerForwardPackedTrans(const float *in_t, std::size_t batch,
                             const PackedWeights& w, const float *bias,
                             float *out, bool relu)
{
    const SimdLevel level = currentSimdLevel();
    runPacked(in_t, batch, w, bias, out, relu,
              GemmTileCache::instance().lookup(batch, w.inDim(),
                                               w.outDim(), level,
                                               /*trans=*/true),
              microSetFor(level, /*trans=*/true), /*trans=*/true);
}

void
denseLayerForwardPackedTransLevel(SimdLevel level, const float *in_t,
                                  std::size_t batch,
                                  const PackedWeights& w,
                                  const float *bias, float *out,
                                  bool relu, const GemmTile& tile)
{
    runPacked(in_t, batch, w, bias, out, relu, tile,
              microSetFor(level, /*trans=*/true), /*trans=*/true);
}

void
denseLayerForward(const float *in, std::size_t batch, std::size_t in_dim,
                  const float *weights, const float *bias,
                  std::size_t out_dim, float *out, bool relu)
{
    // Degenerate shapes: nothing to write (and no bias-init pass to
    // run) when the output block is empty.
    if (batch == 0 || out_dim == 0)
        return;

    // Initialize outputs with the bias (or zero).
    for (std::size_t b = 0; b < batch; ++b) {
        float *o = out + b * out_dim;
        if (bias) {
            std::copy(bias, bias + out_dim, o);
        } else {
            std::fill(o, o + out_dim, 0.0f);
        }
    }

    for (std::size_t k0 = 0; k0 < in_dim; k0 += tileIn) {
        const std::size_t k1 = std::min(in_dim, k0 + tileIn);
        for (std::size_t n0 = 0; n0 < out_dim; n0 += tileOut) {
            const std::size_t n1 = std::min(out_dim, n0 + tileOut);
            for (std::size_t b = 0; b < batch; ++b) {
                const float *x = in + b * in_dim;
                float *o = out + b * out_dim;
                for (std::size_t n = n0; n < n1; ++n) {
                    const float *w = weights + n * in_dim;
                    float acc = 0.0f;
                    for (std::size_t k = k0; k < k1; ++k)
                        acc += x[k] * w[k];
                    o[n] += acc;
                }
            }
        }
    }

    if (relu) {
        for (std::size_t i = 0; i < batch * out_dim; ++i)
            out[i] = std::max(out[i], 0.0f);
    }
}

void
denseLayerForwardRef(const float *in, std::size_t batch, std::size_t in_dim,
                     const float *weights, const float *bias,
                     std::size_t out_dim, float *out, bool relu)
{
    for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t n = 0; n < out_dim; ++n) {
            double acc = bias ? bias[n] : 0.0;
            for (std::size_t k = 0; k < in_dim; ++k)
                acc += static_cast<double>(in[b * in_dim + k]) *
                       weights[n * in_dim + k];
            float v = static_cast<float>(acc);
            out[b * out_dim + n] = relu ? std::max(v, 0.0f) : v;
        }
    }
}

void
sigmoidInplace(float *data, std::size_t n)
{
    switch (currentSimdLevel()) {
      case SimdLevel::Avx512:
        sigmoidInplaceAvx512(data, n);
        return;
      case SimdLevel::Avx2:
        sigmoidInplaceAvx2(data, n);
        return;
      default:
        sigmoidInplaceScalar(data, n);
        return;
    }
}

} // namespace dlrmopt::core
