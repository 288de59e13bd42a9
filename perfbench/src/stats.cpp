#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <stdexcept>

#include <sys/resource.h>

namespace perfbench
{

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        throw std::invalid_argument("percentile: empty sample");
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t i = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[i - 1];
}

double
tailPercentile(std::size_t n)
{
    if (n < 40)
        return 50.0;
    const double p = std::floor(100.0 * static_cast<double>(n - 10) /
                                static_cast<double>(n));
    return std::min(99.0, p);
}

namespace
{

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

std::string
resultJson(bool correct, std::size_t attempted, std::size_t failed,
           const std::vector<Metric>& metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        if (!std::isfinite(m.value))
            throw std::runtime_error("metric " + m.name + " is not finite");
        std::snprintf(buf, sizeof(buf), "%.17g", m.value);
        s += (i ? ", \"" : "\"") + jsonEscape(m.name) +
             "\": {\"value\": " + buf + ", \"unit\": \"" +
             jsonEscape(m.unit) + "\"}";
    }
    s += "}}";
    return s;
}

} // namespace perfbench
