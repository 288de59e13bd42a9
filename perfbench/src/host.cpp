#include "host.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "core/simd.hpp"
#include "stats.hpp"

namespace perfbench
{

namespace
{

std::string
firstLine(const std::string& path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/** Parses sysfs cache sizes such as "107520K". */
std::size_t
parseCacheSize(const std::string& s)
{
    if (s.empty())
        return 0;
    std::size_t n = 0;
    std::size_t i = 0;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9')
        n = n * 10 + static_cast<std::size_t>(s[i++] - '0');
    if (i < s.size() && (s[i] == 'K' || s[i] == 'k'))
        n <<= 10;
    else if (i < s.size() && (s[i] == 'M' || s[i] == 'm'))
        n <<= 20;
    return n;
}

} // namespace

HostInfo
readHostInfo()
{
    HostInfo h;
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            h.cpuModel = colon == std::string::npos
                             ? line
                             : line.substr(colon + 2);
            break;
        }
    }
    // The last-level cache is the highest-numbered sysfs cache index.
    for (int idx = 0; idx < 8; ++idx) {
        const std::string base = "/sys/devices/system/cpu/cpu0/cache/index" +
                                 std::to_string(idx) + "/size";
        const std::size_t sz = parseCacheSize(firstLine(base));
        if (sz > 0)
            h.llcBytes = sz;
    }
    h.cores = std::max(1u, std::thread::hardware_concurrency());
    const std::string thp =
        firstLine("/sys/kernel/mm/transparent_hugepage/enabled");
    const auto open = thp.find('[');
    const auto close = thp.find(']');
    h.thpMode = open != std::string::npos && close > open
                    ? thp.substr(open + 1, close - open - 1)
                    : "unknown";
    h.simdLevel = dlrmopt::core::simdLevelName(
        dlrmopt::core::currentSimdLevel());
    return h;
}

double
probeFmaGflopPerS()
{
    // 64 independent accumulators keep every FMA unit busy without a
    // memory operand; the compiler vectorizes the inner loop.
    constexpr std::size_t lanes = 64;
    constexpr std::size_t iters = 4'000'000;
    alignas(64) float acc[lanes];
    for (std::size_t j = 0; j < lanes; ++j)
        acc[j] = 1.0f + 1e-3f * static_cast<float>(j);
    volatile float mul_src = 0.999999f;
    volatile float add_src = 1e-7f;
    const float mul = mul_src;
    const float add = add_src;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
        for (std::size_t j = 0; j < lanes; ++j)
            acc[j] = std::fma(acc[j], mul, add);
    }
    const double s = msBetween(t0, Clock::now()) * 1e-3;
    volatile float sink = std::accumulate(acc, acc + lanes, 0.0f);
    (void)sink;
    return 2.0 * static_cast<double>(lanes) * static_cast<double>(iters) /
           s * 1e-9;
}

double
probeLoadLatencyNs()
{
    constexpr std::size_t bytes = 256u << 20;
    constexpr std::size_t line = 64;
    constexpr std::size_t nodes = bytes / line;
    constexpr std::size_t loads = 1u << 20;
    struct alignas(64) Node
    {
        std::uint32_t next;
        char pad[60];
    };
    std::unique_ptr<Node[]> buf(new Node[nodes]);
    // A random visiting order (fixed seed) linked into one cycle, so
    // every load depends on the previous one and defeats prefetching.
    std::vector<std::uint32_t> order(nodes);
    std::iota(order.begin(), order.end(), 0u);
    std::mt19937_64 rng(0x5eedULL);
    for (std::size_t i = nodes - 1; i > 0; --i) {
        std::uniform_int_distribution<std::size_t> pick(0, i - 1);
        std::swap(order[i], order[pick(rng)]);
    }
    for (std::size_t i = 0; i < nodes; ++i)
        buf[order[i]].next = order[(i + 1) % nodes];
    std::uint32_t p = order[0];
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < loads; ++i)
        p = buf[p].next;
    const double ns = msBetween(t0, Clock::now()) * 1e6;
    volatile std::uint32_t sink = p;
    (void)sink;
    return ns / static_cast<double>(loads);
}

} // namespace perfbench
