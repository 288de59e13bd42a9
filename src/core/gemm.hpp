/**
 * @file
 * Dense (fully-connected) layer kernels.
 *
 * The bottom- and top-MLP stages of DLRM are back-to-back dense layers
 * (Sec. 2.1 of the paper). Two implementations coexist:
 *
 *  - denseLayerForward: the portable cache-blocked kernel over the
 *    PyTorch nn.Linear weight layout (out_dim x in_dim, row-major).
 *    Scalar inner loop; kept as the baseline the packed engine is
 *    benchmarked and regression-tested against.
 *
 *  - denseLayerForwardPacked: a register-blocked SIMD microkernel
 *    engine over weights prepacked into k-major panels of
 *    PackedWeights::panelWidth output neurons (the pack layout JIT
 *    GEMM libraries use for DLRM MLPs). The microkernel broadcasts
 *    one activation, loads one panel row, and FMA-accumulates
 *    MR x panelWidth outputs held in registers; bias and ReLU are
 *    fused into the final accumulate store (no separate init or ReLU
 *    pass). Dispatches on SimdLevel: 6x16 on AVX-512, 4x16 (two ymm
 *    per row) on AVX2, and a bitwise scalar mirror.
 *
 * Every output element's value is a single fmaf chain over k in
 * ascending order, finished by "+ bias" and the branchless ReLU
 * "acc > 0 ? acc : 0". That chain is identical in all three ISA
 * variants, for every tile shape (mr/kc), and for every position of a
 * sample inside the batch, so packed results are *bitwise* invariant
 * across SimdLevels, tile choices, and request coalescing — only the
 * kernel vs. the reference differ (by float rounding, tolerance-
 * tested).
 */

#ifndef DLRMOPT_CORE_GEMM_HPP
#define DLRMOPT_CORE_GEMM_HPP

#include <cstddef>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "core/simd.hpp"
#include "core/types.hpp"

namespace dlrmopt::core
{

/**
 * Computes one dense layer: out = act(in * W^T + b).
 *
 * Degenerate shapes are well-defined: batch == 0 or out_dim == 0 is a
 * no-op (out is never touched — no bias-init pass runs), and
 * in_dim == 0 reduces to the epilogue (bias, then optional ReLU).
 *
 * @param in Input activations, row-major [batch x in_dim].
 * @param batch Number of samples in the batch.
 * @param in_dim Input feature dimension.
 * @param weights Weight matrix, row-major [out_dim x in_dim].
 * @param bias Bias vector of length out_dim, or nullptr for no bias.
 * @param out_dim Output feature dimension.
 * @param out Output activations, row-major [batch x out_dim].
 * @param relu Apply ReLU when true (hidden layers); identity when
 *             false (final layer before the sigmoid).
 */
void denseLayerForward(const float *in, std::size_t batch,
                       std::size_t in_dim, const float *weights,
                       const float *bias, std::size_t out_dim, float *out,
                       bool relu);

/**
 * Reference (naive triple loop, double accumulator) implementation of
 * denseLayerForward, used by the test suite to validate both the
 * blocked baseline and the packed microkernel engine.
 */
void denseLayerForwardRef(const float *in, std::size_t batch,
                          std::size_t in_dim, const float *weights,
                          const float *bias, std::size_t out_dim,
                          float *out, bool relu);

/**
 * One-time panel-packed copy of a dense layer's weight matrix.
 *
 * The nn.Linear layout [out_dim x in_dim] is repacked into panels of
 * panelWidth consecutive output neurons, k-major within the panel:
 *
 *   panel(p)[k * panelWidth + j] == weights[(p*panelWidth + j)*in_dim + k]
 *
 * so the microkernel streams one contiguous panel row (a full vector
 * of 16 neighboring outputs' weights for one k) per FMA step. The
 * last panel is zero-padded to panelWidth — padded columns accumulate
 * exact zeros and are never stored.
 *
 * The panel width is fixed (not SimdLevel-dependent), so one packed
 * copy serves the AVX-512, AVX2, and scalar kernels alike; packs are
 * built once at model construction and shared read-only by every
 * forward.
 */
class PackedWeights
{
  public:
    /** Output neurons per packed panel (one AVX-512 vector). */
    static constexpr std::size_t panelWidth = 16;

    /** Creates an empty pack (inDim() == outDim() == 0). */
    PackedWeights() = default;

    /**
     * Packs @p weights (row-major [out_dim x in_dim]).
     *
     * @throws std::invalid_argument when weights is null but the
     *         shape is non-empty.
     */
    PackedWeights(const float *weights, std::size_t in_dim,
                  std::size_t out_dim);

    std::size_t inDim() const { return _inDim; }
    std::size_t outDim() const { return _outDim; }
    bool empty() const { return _outDim == 0; }

    /** Number of panels: ceil(outDim / panelWidth). */
    std::size_t
    numPanels() const
    {
        return (_outDim + panelWidth - 1) / panelWidth;
    }

    /** Packed panel @p p: [inDim x panelWidth], k-major, 64B-aligned. */
    const float *
    panel(std::size_t p) const
    {
        return _data.data() + p * _inDim * panelWidth;
    }

    /** Bytes of packed storage (includes tail-panel padding). */
    std::size_t bytes() const { return _data.size() * sizeof(float); }

  private:
    std::size_t _inDim = 0;
    std::size_t _outDim = 0;
    std::vector<float, AlignedAllocator<float>> _data;
};

/**
 * Register-blocking parameters for one packed dense-layer call.
 * Zero fields mean "use the level/shape default".
 */
struct GemmTile
{
    std::size_t mr = 0; //!< sample rows per microtile (<= gemmMaxRows)
    std::size_t kc = 0; //!< k-chunk length (cache blocking; 0 = full depth)

    bool operator==(const GemmTile&) const = default;
};

/** Largest microtile row count the level's kernel supports
 *  (6 on AVX-512, 4 on AVX2 and scalar). */
std::size_t gemmMaxRows(SimdLevel level);

/**
 * Heuristic tile for a (batch, shape, level) point when the cache has
 * no autotuned entry: full-depth GEMV-shaped blocking at batch == 1,
 * L1-sized k-chunks with the widest microtile otherwise.
 */
GemmTile defaultGemmTile(std::size_t batch, std::size_t in_dim,
                         std::size_t out_dim, SimdLevel level);

/**
 * Process-wide table of autotuned tiles, keyed by
 * (m-bucket, in_dim, out_dim, SimdLevel). The packed forward consults
 * it on every call (falling back to defaultGemmTile on a miss), and
 * tuneGemmTile() installs winners. Buckets coarsen the batch axis so
 * one tuning pass at a representative m covers the whole bucket:
 * m = 1 | 2-4 | 5-16 | 17-64 | 65+.
 *
 * Lookups are lock-guarded but allocation-free, so steady-state
 * forwards through a warm (or empty) cache stay zero-alloc.
 */
class GemmTileCache
{
  public:
    static GemmTileCache& instance();

    /** Bucket index (0..4) for a batch size. */
    static int bucketOf(std::size_t batch);

    /** Representative batch size used to tune bucket @p bucket. */
    static std::size_t bucketRepresentative(int bucket);

    /** Number of m-buckets. */
    static constexpr int numBuckets = 5;

    /**
     * Cached tile for this point, or defaultGemmTile on a miss.
     * @p trans keys the n-major (transposed-activation) engine
     * variant separately — its streaming pattern over the activations
     * differs, so the best blocking can too.
     */
    GemmTile lookup(std::size_t batch, std::size_t in_dim,
                    std::size_t out_dim, SimdLevel level,
                    bool trans = false) const;

    /** True when this exact point has an autotuned entry. */
    bool contains(std::size_t batch, std::size_t in_dim,
                  std::size_t out_dim, SimdLevel level,
                  bool trans = false) const;

    /** Installs @p tile for (bucketOf(batch), shape, level, trans). */
    void install(std::size_t batch, std::size_t in_dim,
                 std::size_t out_dim, SimdLevel level, GemmTile tile,
                 bool trans = false);

    /** Number of installed entries. */
    std::size_t size() const;

    /** Drops every entry (testing / re-tuning). */
    void clear();

  private:
    using Key = std::tuple<int, std::size_t, std::size_t, int, int>;

    mutable std::mutex _mu;
    std::map<Key, GemmTile> _tiles;
};

/**
 * Packed-weight dense layer: out = act(in * W^T + b) through the
 * register-blocked microkernel engine, dispatched on
 * currentSimdLevel() with the tile from GemmTileCache (autotuned if
 * installed, heuristic otherwise).
 *
 * Same degenerate-shape contract as denseLayerForward. Performs no
 * heap allocation.
 *
 * @param in Input activations, row-major [batch x w.inDim()].
 * @param bias Bias vector of length w.outDim(), or nullptr.
 * @param out Output activations, row-major [batch x w.outDim()].
 */
void denseLayerForwardPacked(const float *in, std::size_t batch,
                             const PackedWeights& w, const float *bias,
                             float *out, bool relu);

/**
 * denseLayerForwardPacked with a forced ISA level and explicit tile
 * (testing / ablation / autotuning). Levels above the compiled or
 * detected capability degrade like the other forced kernels
 * (AVX-512 -> AVX2 -> scalar). Results are bitwise-identical across
 * levels and tiles by construction.
 */
void denseLayerForwardPackedLevel(SimdLevel level, const float *in,
                                  std::size_t batch,
                                  const PackedWeights& w,
                                  const float *bias, float *out,
                                  bool relu, const GemmTile& tile = {});

/**
 * n-major (transposed-activation) packed dense layer:
 * out = act(A^T * W^T + b) where @p in_t holds the activations
 * feature-major, [w.inDim() x batch] row-major (element (m, k) at
 * in_t[k*batch + m]). The output stays row-major [batch x w.outDim()],
 * so one trans call converts a feature-major producer (the streaming
 * pipeline's interaction stage) back into the standard layout without
 * a separate repack pass.
 *
 * Only the activation load addresses differ from the m-major engine —
 * each output element runs the identical fmaf chain over ascending k
 * with the same fused epilogue — so results are bitwise-identical to
 * denseLayerForwardPacked on the same (untransposed) activations,
 * across SimdLevels and tiles alike.
 */
void denseLayerForwardPackedTrans(const float *in_t, std::size_t batch,
                                  const PackedWeights& w,
                                  const float *bias, float *out,
                                  bool relu);

/** denseLayerForwardPackedTrans with a forced ISA level and explicit
 *  tile (testing / ablation / autotuning). */
void denseLayerForwardPackedTransLevel(SimdLevel level,
                                       const float *in_t,
                                       std::size_t batch,
                                       const PackedWeights& w,
                                       const float *bias, float *out,
                                       bool relu,
                                       const GemmTile& tile = {});

/** Logistic sigmoid applied elementwise in place. */
void sigmoidInplace(float *data, std::size_t n);

} // namespace dlrmopt::core

#endif // DLRMOPT_CORE_GEMM_HPP
