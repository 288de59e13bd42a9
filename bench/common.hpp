/**
 * @file
 * Shared helpers for the figure/table benches: evaluation-config
 * factories, scheme bundles that share contents simulations, a
 * disk-backed simulation cache (full-size sims take seconds to tens
 * of seconds; several benches need the same runs), and table
 * printing.
 *
 * Environment knobs:
 *  - DLRMOPT_BENCH_QUICK=1 : smoke mode (fewer configs, same code
 *    paths) for iterating on the harness.
 *  - DLRMOPT_CACHE_DIR=dir : where cached sim results live
 *    (default ./bench_cache). Delete the directory to force re-runs.
 */

#ifndef DLRMOPT_BENCH_COMMON_HPP
#define DLRMOPT_BENCH_COMMON_HPP

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/model_config.hpp"
#include "core/scheme.hpp"
#include "platform/evaluator.hpp"
#include "trace/hotness.hpp"

namespace dlrmopt::bench
{

/** True when DLRMOPT_BENCH_QUICK is set to a nonzero value. */
inline bool
quickMode()
{
    const char *v = std::getenv("DLRMOPT_BENCH_QUICK");
    return v && v[0] && std::strcmp(v, "0") != 0;
}

/**
 * This host's last-level cache in bytes: the largest cache cpu0
 * reports in sysfs ("32K", "2048K", "300M"), 0 when unreadable.
 * Benches size "cold" stores from it so cold rows come from DRAM.
 */
inline std::size_t
llcBytes()
{
    std::size_t best = 0;
    for (int idx = 0; idx < 8; ++idx) {
        std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                        std::to_string(idx) + "/size");
        std::string s;
        if (!(f >> s))
            continue;
        std::size_t n = 0, i = 0;
        while (i < s.size() && s[i] >= '0' && s[i] <= '9')
            n = n * 10 + static_cast<std::size_t>(s[i++] - '0');
        if (i < s.size() && (s[i] == 'K' || s[i] == 'k'))
            n <<= 10;
        else if (i < s.size() && (s[i] == 'M' || s[i] == 'm'))
            n <<= 20;
        best = std::max(best, n);
    }
    return best;
}

/** Table-fold cap used by all benches (see EvalConfig::maxSimTables). */
inline std::size_t
simTables()
{
    return quickMode() ? 12 : 24;
}

/** Standard evaluation config for a bench data point. */
inline platform::EvalConfig
makeConfig(const platform::CpuConfig& cpu, const core::ModelConfig& model,
           traces::Hotness h, core::Scheme s, std::size_t cores)
{
    platform::EvalConfig c;
    c.cpu = cpu;
    c.model = model;
    c.hotness = h;
    c.scheme = s;
    c.cores = cores;
    c.numBatches = cores == 1 ? (quickMode() ? 2 : 4) : cores;
    c.maxSimTables = simTables();
    return c;
}

/** Key string capturing everything a sim result depends on. */
inline std::string
simKey(const platform::EvalConfig& c)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "v4|s%zu|%s|r%zu|d%zu|t%zu|l%zu|%d|hw%d|sw%d|dp%d|c%zu|b%zu|f%zu|"
        "pf%d-%d-%d|l1-%llu|l2-%llu|l3-%llu|seed%llu",
        c.cpu.activeSockets(c.cores), c.model.name.c_str(), c.model.rows, c.model.dim, c.model.tables,
        c.model.lookups, static_cast<int>(c.hotness),
        core::usesHwPrefetch(c.scheme), core::usesSwPrefetch(c.scheme),
        c.scheme == core::Scheme::DpHt, c.cores,
        c.numBatches ? c.numBatches : std::max<std::size_t>(c.cores, 6),
        c.maxSimTables, c.pfDistance,
        c.pfAmount >= 0 ? c.pfAmount : c.cpu.bestPfAmount, c.pfLocality,
        static_cast<unsigned long long>(c.cpu.l1.sizeBytes),
        static_cast<unsigned long long>(c.cpu.l2.sizeBytes),
        static_cast<unsigned long long>(c.cpu.l3.sizeBytes),
        static_cast<unsigned long long>(c.seed));
    return buf;
}

/** simulateEmbedding() with a transparent on-disk cache. */
inline platform::SimRun
cachedSimulate(const platform::EvalConfig& cfg)
{
    const char *dir_env = std::getenv("DLRMOPT_CACHE_DIR");
    const std::filesystem::path dir =
        dir_env && dir_env[0] ? dir_env : "./bench_cache";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);

    const std::string key = simKey(cfg);
    std::uint64_t h = 1469598103934665603ull;
    for (char c : key)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    const auto path = dir / (std::to_string(h) + ".simrun");

    // Try to load; validate the full key to rule out hash collisions.
    if (std::ifstream in{path, std::ios::binary}) {
        std::uint32_t klen = 0;
        in.read(reinterpret_cast<char *>(&klen), sizeof(klen));
        std::string stored(klen, '\0');
        in.read(stored.data(), klen);
        platform::SimRun run;
        in.read(reinterpret_cast<char *>(&run.stats),
                sizeof(run.stats));
        in.read(reinterpret_cast<char *>(&run.fold), sizeof(run.fold));
        in.read(reinterpret_cast<char *>(&run.batches),
                sizeof(run.batches));
        if (in && stored == key)
            return run;
    }

    const platform::SimRun run = platform::simulateEmbedding(cfg);
    if (std::ofstream out{path, std::ios::binary}) {
        const auto klen = static_cast<std::uint32_t>(key.size());
        out.write(reinterpret_cast<const char *>(&klen), sizeof(klen));
        out.write(key.data(), klen);
        out.write(reinterpret_cast<const char *>(&run.stats),
                  sizeof(run.stats));
        out.write(reinterpret_cast<const char *>(&run.fold),
                  sizeof(run.fold));
        out.write(reinterpret_cast<const char *>(&run.batches),
                  sizeof(run.batches));
    }
    return run;
}

/** Results for every Sec. 6 design point at one (model, dataset,
 *  cores) cell; contents sims are shared where schemes allow. */
struct SchemeResults
{
    platform::EvalResult off;   //!< w/o HW-PF
    platform::EvalResult base;  //!< Baseline
    platform::EvalResult swpf;  //!< SW-PF
    platform::EvalResult dpht;  //!< DP-HT
    platform::EvalResult mpht;  //!< MP-HT (shares Baseline contents)
    platform::EvalResult integ; //!< Integrated (shares SW-PF contents)

    double speedup(const platform::EvalResult& r) const
    {
        return base.batchMs / r.batchMs;
    }

    double embSpeedup(const platform::EvalResult& r) const
    {
        return base.embMs / r.embMs;
    }
};

/** Evaluates all six schemes with four contents simulations. */
inline SchemeResults
evalAllSchemes(platform::EvalConfig cfg)
{
    using core::Scheme;
    SchemeResults r;

    cfg.scheme = Scheme::Baseline;
    const auto base_run = cachedSimulate(cfg);
    r.base = platform::compose(cfg, base_run);
    cfg.scheme = Scheme::MpHt;
    r.mpht = platform::compose(cfg, base_run);

    cfg.scheme = Scheme::SwPf;
    const auto pf_run = cachedSimulate(cfg);
    r.swpf = platform::compose(cfg, pf_run);
    cfg.scheme = Scheme::Integrated;
    r.integ = platform::compose(cfg, pf_run);

    cfg.scheme = Scheme::HwPfOff;
    r.off = platform::compose(cfg, cachedSimulate(cfg));

    cfg.scheme = Scheme::DpHt;
    r.dpht = platform::compose(cfg, cachedSimulate(cfg));
    return r;
}

/** Prints a bench banner naming the reproduced figure/table. */
inline void
printHeader(const char *id, const char *title, const char *note = nullptr)
{
    std::printf("\n==============================================="
                "=============================\n");
    std::printf("%s — %s\n", id, title);
    if (note)
        std::printf("%s\n", note);
    if (quickMode())
        std::printf("[quick mode: reduced configs — unset "
                    "DLRMOPT_BENCH_QUICK for full runs]\n");
    std::printf("================================================"
                "============================\n");
}

} // namespace dlrmopt::bench

#endif // DLRMOPT_BENCH_COMMON_HPP
