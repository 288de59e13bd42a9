/**
 * @file
 * Order statistics and result printing for the serving benchmark.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds between two steady-clock points. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Seconds of CPU time used by the whole process so far. */
double processCpuSeconds();

/** Peak resident set size of the process, in MB (2^20 bytes). */
double peakRssMb();

/**
 * Nearest-rank percentile @p p (0 < p <= 100) of @p v. Sorts a copy.
 * @throws std::invalid_argument on an empty sample.
 */
double percentile(std::vector<double> v, double p);

inline double median(const std::vector<double>& v)
{
    return percentile(v, 50.0);
}

/**
 * Highest whole percentile, at most 99, that leaves at least ten
 * samples beyond it in a sample of @p n; 50 when n < 40 (a smaller
 * sample has no tail worth reporting).
 */
double tailPercentile(std::size_t n);

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. */
std::string resultJson(bool correct, std::size_t attempted,
                       std::size_t failed,
                       const std::vector<Metric>& metrics);

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
