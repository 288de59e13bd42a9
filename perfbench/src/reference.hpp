/**
 * @file
 * Independent reference forward for checking served predictions.
 *
 * It shares no arithmetic with the program: it reads the MLP weights
 * through Mlp::layerWeights/layerBias and the embedding rows through
 * the tables' public row accessors, and computes one sample's click
 * probability in scalar double precision.
 */

#ifndef PERFBENCH_REFERENCE_HPP
#define PERFBENCH_REFERENCE_HPP

#include <cstddef>

#include "core/dlrm.hpp"

namespace perfbench
{

/**
 * Reference prediction of sample @p b of (@p dense, @p sparse), with
 * the embedding rows read from the store @p model serves for @p dtype.
 * Int8 rows are dequantized exactly (code * scale + bias); the MLPs run
 * on the fp32 weights at every dtype.
 */
double referencePredict(const dlrmopt::core::DlrmModel& model,
                        dlrmopt::core::EmbDtype dtype,
                        const dlrmopt::core::Tensor& dense,
                        const dlrmopt::core::SparseBatch& sparse,
                        std::size_t b);

/** Allowed |served - reference| over the checked rows of one run. */
struct Tolerance
{
    double maxAbs;  //!< bound on every row
    double meanAbs; //!< bound on the mean over the checked rows
};

/**
 * Tolerance for predictions served at @p dtype. fp32 and bf16 differ
 * from the double reference only by float rounding (the reference reads
 * the same bf16 rows). Int8 also quantizes the MLP activations (7 bits,
 * one range per dispatch) and weights, which the reference does not
 * model: on the rm1 workload its error has a mean of about 0.01 and a
 * maximum of 0.063 over 1,536 rows, so each row is held to 0.15 (a
 * broken kernel or a wrong row lands far outside) and the mean to 0.03
 * (a systematic loss of accuracy).
 */
Tolerance referenceTolerance(dlrmopt::core::EmbDtype dtype);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HPP
