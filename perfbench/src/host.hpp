/**
 * @file
 * Host fingerprint and drift probes. The probes are the benchmark's
 * own code, so a run that reads slow on them as well as on the program
 * was a slow host, not a slow program.
 */

#ifndef PERFBENCH_HOST_HPP
#define PERFBENCH_HOST_HPP

#include <cstddef>
#include <string>

namespace perfbench
{

/** Static description of the machine a run executed on. */
struct HostInfo
{
    std::string cpuModel;
    std::string simdLevel;   //!< dlrmopt's detected SimdLevel
    std::size_t llcBytes = 0;
    std::size_t cores = 0;   //!< online logical CPUs
    std::string thpMode;     //!< transparent huge page setting
};

HostInfo readHostInfo();

/** Fused multiply-add throughput of a fixed register-resident loop. */
double probeFmaGflopPerS();

/**
 * Mean latency of dependent loads walking a random cyclic chain of
 * cache lines through a 256 MiB buffer (larger than any LLC this
 * benchmark targets), in ns.
 */
double probeLoadLatencyNs();

} // namespace perfbench

#endif // PERFBENCH_HOST_HPP
