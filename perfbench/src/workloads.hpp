/**
 * @file
 * The benchmark's workloads and the code that measures them.
 *
 * Every workload builds a fixed-size DLRM whose tables are several
 * times the LLC, makes its inputs from the run seed, and drives them
 * through the public serving API:
 *
 *  - open-loop phases at two fixed Poisson rates r1 and r2, each
 *    request a batch of 64 handed to the next free single-core
 *    serve::Server through executeBatchedAttempt, timed from its due
 *    time;
 *  - on replay workloads, a replay phase: seeded arrival lists served
 *    through Server::serve with coalescing (and the streamed pipeline
 *    where the workload asks for it) as fast as the program runs.
 *
 * Every served prediction that can be seen from outside is checked:
 * bitwise against the same input served alone without a hot tier, and
 * a seeded sample against the independent reference forward.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/model_config.hpp"
#include "core/quant.hpp"
#include "trace/hotness.hpp"

namespace perfbench
{

struct WorkloadSpec
{
    std::string name;
    dlrmopt::core::ModelConfig model;
    dlrmopt::traces::Hotness hotness = dlrmopt::traces::Hotness::Medium;
    dlrmopt::core::EmbDtype dtype = dlrmopt::core::EmbDtype::Fp32;

    bool replay = false;   //!< has a Server::serve replay phase
    bool streamed = false; //!< replay through the two-lane pipeline
    bool hotTier = false;  //!< each server fronted by a HotTierCache

    double r1 = 0.0; //!< light open-loop rate, requests/s
    double r2 = 0.0; //!< moderate open-loop rate, requests/s

    /** Distinct input batches, cycled by the requests. */
    std::size_t distinctBatches = 0;
};

/** The benchmark's workloads, in the order BENCHMARK.json lists them. */
const std::vector<WorkloadSpec>& workloadSpecs();

struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string sourceId = "unknown";
};

/**
 * Runs one workload and prints its report; the last line of standard
 * output is the JSON result. Returns the process exit code: 0 when
 * every check passed, 1 otherwise (and then no result line).
 */
int runWorkload(const WorkloadSpec& spec, const RunOptions& opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
