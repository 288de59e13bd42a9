#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "core/batching.hpp"
#include "core/dlrm.hpp"
#include "core/hot_tier.hpp"
#include "host.hpp"
#include "reference.hpp"
#include "sched/ht_thread_pool.hpp"
#include "sched/topology.hpp"
#include "serve/degrade.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "trace/generator.hpp"

namespace perfbench
{

namespace core = dlrmopt::core;
namespace serve = dlrmopt::serve;
namespace sched = dlrmopt::sched;
namespace traces = dlrmopt::traces;

namespace
{

constexpr std::size_t kBatch = core::paperBatchSize; // 64 samples
constexpr std::uint64_t kModelSeed = 42; // the model is fixed; inputs vary
constexpr int kSetupRepeats = 3;

/** Coalescing cap of the replay server, and the size of the final
 *  burst each replay session ends with (see runReplay). */
constexpr std::size_t kCoalesceCap = 8;

/**
 * Requests are attempted in whole rounds of kRound: an open-loop phase
 * releases a multiple of kRound requests, a replay session serves
 * kRound requests, and every round adds one coalescing-identity check
 * (see checkCoalescedIdentity). The share of checks in `attempted` is
 * therefore the same in every run, whatever the seed and run length.
 */
constexpr std::size_t kRound = 32;

/** The coalescing-identity check runs on inputs drawn from this fixed
 *  seed, so whether it passes does not depend on the run seed. */
constexpr std::uint64_t kCheckInputSeed = 0xC0A1E5CEull;
constexpr std::size_t kCheckMembers = 2;

/** Each measured phase is split into this many slices, interleaved
 *  with the other phases' slices, so every metric pools samples from
 *  the whole run rather than from one few-second window of a host
 *  whose speed drifts on that scale. */
constexpr std::size_t kSlices = 3;

/** Virtual clock of the replays: requests arrive every 0.5 ms on
 *  average and a dispatch is priced at 4 ms + 1/64 ms per sample, so
 *  the queue settles at about four requests per dispatch. The SLA is
 *  far beyond any queue this builds, so nothing is shed and the
 *  degradation policy (disabled) stays at tier 0. */
constexpr double kReplayGapMs = 0.5;
constexpr double kReplaySlaMs = 10'000.0;
constexpr double kBurstOffsetMs = 1'000.0;
const serve::ServiceModel kReplayService{4.0, 1.0 / 64.0};

/** Hot tier as `dlrmopt cache` and `dlrmopt serve` configure it by
 *  default: a 4 MiB budget and an epoch every 20,000 lookups. */
core::HotTierConfig
tierConfig()
{
    core::HotTierConfig hc;
    hc.budgetBytes = 4u << 20;
    hc.epochLookups = 20'000;
    hc.minAccesses = 2;
    hc.validate();
    return hc;
}

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** rm2_1's layout (dim 128, 120 lookups per table, its MLPs) on four
 *  tables of 2^18 rows: 512 MiB of fp32 rows, 30,720 lookups per
 *  batch of 64. */
core::ModelConfig
rm2Geometry()
{
    core::ModelConfig m = core::rm2_1();
    m.name = "rm2_1-4x256k";
    m.tables = 4;
    m.rows = 1u << 18;
    return m;
}

/** rm1's layout (all 32 tables, dim 64, 80 lookups, its MLPs) on 2^16
 *  rows per table: 512 MiB of fp32 rows. */
core::ModelConfig
rm1Geometry()
{
    core::ModelConfig m = core::rm1();
    m.name = "rm1-32x64k";
    m.rows = 1u << 16;
    return m;
}

/** Collects check failures; any failure fails the run. */
struct Checks
{
    std::size_t count = 0;
    std::vector<std::string> messages;

    void
    fail(const std::string& msg)
    {
        if (messages.size() < 16)
            messages.push_back(msg);
        ++count;
    }
};

/** A served prediction block kept for the reference check. */
struct Sampled
{
    std::size_t batch = 0;       //!< index into Setup::batches
    std::vector<float> preds;    //!< kBatch predictions as served
};

/** Everything a run builds before its first timed request. */
struct Setup
{
    core::Tensor dense; //!< [kBatch x denseDim], shared by all requests
    std::vector<core::SparseBatch> batches;
    std::shared_ptr<const core::EmbeddingStore> store;
    std::shared_ptr<const core::EmbeddingStore> qstore;
    std::vector<std::unique_ptr<core::DlrmModel>> replicas;
    // Servers reference the replicas: declared after them so they are
    // destroyed first.
    std::vector<std::unique_ptr<serve::Server>> servers; //!< single-core
    std::unique_ptr<serve::Server> replayServer;         //!< all cores
    std::vector<std::vector<float>> expected; //!< per batch, served alone

    /** The replay burst (the last kCoalesceCap inputs of a session)
     *  dispatched as one coalesced group on a tier-less server. */
    std::vector<float> burstExpected;

    /** Fixed inputs of the coalescing-identity check, and each one's
     *  predictions served alone on a tier-less server. */
    std::vector<core::SparseBatch> checkBatches;
    std::vector<std::vector<float>> checkSolo;

    double inputsS = 0.0;
    double storeS = 0.0;
    double replicasS = 0.0;
    double totalS = 0.0;
};

const serve::DegradeState&
tier0()
{
    static const serve::DegradeState s =
        serve::DegradationPolicy::stateForTier(0);
    return s;
}

/** Serves batch @p b alone on @p server; returns the predictions. */
std::vector<float>
serveAlone(serve::Server& server, const Setup& s, std::size_t b)
{
    const std::vector<const core::SparseBatch *> parts{&s.batches[b]};
    const std::vector<const core::Tensor *> dense{&s.dense};
    server.executeBatchedAttempt(0, parts, dense, tier0(),
                                 core::PrefetchSpec::paperDefault());
    const core::Tensor& p = server.lastPredictions();
    return std::vector<float>(p.data(), p.data() + p.size());
}

bool
sameBits(const float *a, const float *b, std::size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

std::size_t
servingServers()
{
    const std::size_t cores = sched::Topology::detect().numPhysicalCores();
    return cores > 1 ? cores - 1 : 1;
}

std::unique_ptr<Setup>
buildSetup(const WorkloadSpec& spec, std::uint64_t seed, Checks& chk)
{
    auto s = std::make_unique<Setup>();
    const auto t0 = Clock::now();

    // Inputs: seeded trace batches and dense features.
    traces::TraceConfig tc =
        traces::TraceConfig::forModel(spec.model, spec.hotness, seed);
    tc.batchSize = kBatch;
    traces::TraceGenerator gen(tc);
    s->batches.reserve(spec.distinctBatches);
    for (std::size_t b = 0; b < spec.distinctBatches; ++b)
        s->batches.push_back(gen.batch(b));
    traces::TraceGenerator check_gen(traces::TraceConfig::forModel(
        spec.model, spec.hotness, kCheckInputSeed));
    for (std::size_t b = 0; b < kCheckMembers; ++b)
        s->checkBatches.push_back(check_gen.batch(b));
    s->dense = core::Tensor(kBatch, spec.model.denseDim());
    for (std::size_t i = 0; i < s->dense.size(); ++i) {
        s->dense.data()[i] = static_cast<float>(
            static_cast<double>(mix(seed * 0x100000001b3ull + i) >> 11) *
            0x1.0p-53);
    }
    const auto t1 = Clock::now();

    s->store = core::EmbeddingStore::create(spec.model, kModelSeed);
    if (spec.dtype != core::EmbDtype::Fp32) {
        s->qstore = core::EmbeddingStore::create(spec.model, kModelSeed,
                                                 256, spec.dtype);
    }
    const auto t2 = Clock::now();

    const std::size_t n = servingServers();
    const sched::Topology topo = sched::Topology::detect();
    const auto groups = topo.partition(topo.numPhysicalCores());
    serve::ServerConfig cfg;
    cfg.slaMs = kReplaySlaMs;
    cfg.service = kReplayService;
    cfg.dtype = spec.dtype;
    for (std::size_t k = 0; k < n; ++k) {
        auto m = std::make_unique<core::DlrmModel>(spec.model, s->store,
                                                   kModelSeed);
        if (s->qstore)
            m->attachQuantizedStore(s->qstore);
        s->servers.push_back(std::make_unique<serve::Server>(
            *m, groups[(k + 1) % groups.size()], cfg));
        s->replicas.push_back(std::move(m));
    }
    serve::ServerConfig rcfg = cfg;
    rcfg.batching.enabled = true;
    rcfg.batching.maxRequests = kCoalesceCap;
    rcfg.streamed = spec.streamed;
    s->replayServer =
        std::make_unique<serve::Server>(*s->replicas[0], topo, rcfg);
    const auto t3 = Clock::now();

    // Expected predictions: each input served alone, no hot tier.
    s->expected.reserve(s->batches.size());
    for (std::size_t b = 0; b < s->batches.size(); ++b)
        s->expected.push_back(serveAlone(*s->servers[0], *s, b));
    for (const auto& cb : s->checkBatches) {
        const std::vector<const core::SparseBatch *> one{&cb};
        const std::vector<const core::Tensor *> dense{&s->dense};
        s->servers[0]->executeBatchedAttempt(
            0, one, dense, tier0(), core::PrefetchSpec::paperDefault());
        const core::Tensor& p = s->servers[0]->lastPredictions();
        s->checkSolo.emplace_back(p.data(), p.data() + p.size());
    }
    {
        std::vector<const core::SparseBatch *> parts;
        std::vector<const core::Tensor *> dense;
        for (std::size_t m = kRound - kCoalesceCap; m < kRound; ++m) {
            parts.push_back(&s->batches[m % s->batches.size()]);
            dense.push_back(&s->dense);
        }
        s->servers[0]->executeBatchedAttempt(
            0, parts, dense, tier0(), core::PrefetchSpec::paperDefault());
        const core::Tensor& p = s->servers[0]->lastPredictions();
        s->burstExpected.assign(p.data(), p.data() + p.size());
    }

    // Attach the tiers, then warm every server in parallel: workspace
    // growth, first touches, and the tier's first epochs all happen
    // here rather than in the measured phase.
    if (spec.hotTier) {
        for (std::size_t k = 0; k < n; ++k) {
            s->servers[k]->attachHotTier(std::make_shared<core::HotTierCache>(
                s->replicas[k]->sharedStoreFor(spec.dtype), tierConfig()));
        }
        s->replayServer->attachHotTier(std::make_shared<core::HotTierCache>(
            s->replicas[0]->sharedStoreFor(spec.dtype), tierConfig()));
    }
    const std::size_t warm = spec.hotTier ? 24 : 4;
    std::vector<std::size_t> mismatches(n, 0);
    std::vector<std::string> errors(n);
    std::vector<std::thread> warmers;
    for (std::size_t k = 0; k < n; ++k) {
        warmers.emplace_back([&, k] {
            try {
                for (std::size_t i = 0; i < warm; ++i) {
                    const std::size_t b = (k * 7 + i) % s->batches.size();
                    const auto p = serveAlone(*s->servers[k], *s, b);
                    if (!sameBits(p.data(), s->expected[b].data(), p.size()))
                        ++mismatches[k];
                }
            } catch (const std::exception& e) {
                errors[k] = e.what();
            }
        });
    }
    for (auto& t : warmers)
        t.join();
    for (std::size_t k = 0; k < n; ++k) {
        if (!errors[k].empty())
            chk.fail("warm-up: server " + std::to_string(k) + ": " + errors[k]);
    }
    if (spec.replay) {
        // One session sizes the replay server's coalescing workspace.
        const std::size_t n_in = std::min(s->batches.size(), kRound);
        const std::vector<core::SparseBatch> inputs(
            s->batches.begin(),
            s->batches.begin() + static_cast<std::ptrdiff_t>(n_in));
        std::vector<double> arrivals(kRound);
        for (std::size_t i = 0; i < kRound; ++i)
            arrivals[i] = kReplayGapMs * static_cast<double>(i);
        const serve::ServeStats st = s->replayServer->serve(
            s->dense, inputs, arrivals, core::PrefetchSpec::paperDefault());
        if (st.served != kRound)
            chk.fail("warm-up: the replay session did not serve every request");
    }
    for (std::size_t k = 0; k < n; ++k) {
        if (mismatches[k]) {
            chk.fail("warm-up: server " + std::to_string(k) + " served " +
                     std::to_string(mismatches[k]) +
                     " predictions that differ from the same input served "
                     "alone without a tier");
        }
    }
    const auto t4 = Clock::now();

    s->inputsS = msBetween(t0, t1) * 1e-3;
    s->storeS = msBetween(t1, t2) * 1e-3;
    s->replicasS = msBetween(t2, t3) * 1e-3;
    s->totalS = msBetween(t0, t4) * 1e-3;
    return s;
}

// ---------------------------------------------------------------------
// Open loop

struct OpenResult
{
    std::vector<double> latMs;  //!< completion - due
    std::vector<double> waitMs; //!< dispatch start - due
    std::vector<double> lagMs;  //!< release - due
    std::size_t attempted = 0;
    std::size_t served = 0;
    std::size_t failed = 0;
    double wallS = 0.0;
    double cpuS = 0.0;
    std::vector<Sampled> sampled;
};

void
mergeInto(OpenResult& into, OpenResult&& part)
{
    auto append = [](std::vector<double>& a, const std::vector<double>& b) {
        a.insert(a.end(), b.begin(), b.end());
    };
    append(into.latMs, part.latMs);
    append(into.waitMs, part.waitMs);
    append(into.lagMs, part.lagMs);
    into.attempted += part.attempted;
    into.served += part.served;
    into.failed += part.failed;
    into.wallS += part.wallS;
    into.cpuS += part.cpuS;
    for (auto& x : part.sampled)
        into.sampled.push_back(std::move(x));
}

/**
 * Releases @p n Poisson arrivals on schedule (the draw is scaled so
 * that its mean rate is exactly @p rate) to the next free single-core
 * server. The generator (calling) thread only sleeps and releases; the serving
 * threads block while their server's pool worker runs the forward.
 */
OpenResult
runOpen(Setup& s, double rate, std::size_t n, std::uint64_t seed,
        Checks& chk)
{
    std::vector<double> arrivals =
        serve::PoissonLoadGen(1000.0 / rate, seed).arrivals(n);
    const double scale = static_cast<double>(n) / rate * 1000.0 *
                         (1.0 - 1.0 / static_cast<double>(n)) /
                         std::max(arrivals.back(), 1e-9);
    for (double& a : arrivals)
        a *= scale;

    struct Req
    {
        std::size_t id;
        Clock::time_point due;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Req> queue;
    bool done = false;

    const std::size_t lanes = s.servers.size();
    std::vector<OpenResult> per(lanes);
    std::vector<std::vector<std::string>> errors(lanes);
    const std::size_t sample_every = std::max<std::size_t>(n / 2, 1);

    auto lane = [&](std::size_t k) {
        serve::Server& server = *s.servers[k];
        OpenResult& r = per[k];
        const std::vector<const core::Tensor *> dense{&s.dense};
        std::vector<const core::SparseBatch *> parts(1);
        for (;;) {
            Req q;
            {
                std::unique_lock<std::mutex> lk(mu);
                cv.wait(lk, [&] { return done || !queue.empty(); });
                if (queue.empty())
                    return;
                q = queue.front();
                queue.pop_front();
            }
            const std::size_t b = q.id % s.batches.size();
            parts[0] = &s.batches[b];
            const auto start = Clock::now();
            bool ok = true;
            try {
                server.executeBatchedAttempt(
                    0, parts, dense, tier0(),
                    core::PrefetchSpec::paperDefault());
            } catch (const std::exception& e) {
                ok = false;
                errors[k].push_back(std::string("request failed: ") +
                                    e.what());
            }
            const auto end = Clock::now();
            if (!ok) {
                ++r.failed;
                continue;
            }
            ++r.served;
            r.latMs.push_back(msBetween(q.due, end));
            r.waitMs.push_back(msBetween(q.due, start));
            const core::Tensor& p = server.lastPredictions();
            if (p.size() != kBatch ||
                !sameBits(p.data(), s.expected[b].data(), kBatch)) {
                errors[k].push_back(
                    "request " + std::to_string(q.id) +
                    ": predictions differ from the same input served alone"
                    " without a tier");
            } else if ((mix(seed ^ q.id) % sample_every) == 0) {
                r.sampled.push_back(
                    Sampled{b, std::vector<float>(p.data(),
                                                  p.data() + kBatch)});
            }
        }
    };

    // Stops and joins the serving threads on every exit path; the
    // normal path drains the queue first.
    std::vector<std::thread> threads;
    struct StopLanes
    {
        std::mutex& mu;
        std::condition_variable& cv;
        bool& done;
        std::vector<std::thread>& threads;

        ~StopLanes()
        {
            {
                std::lock_guard<std::mutex> lk(mu);
                done = true;
            }
            cv.notify_all();
            for (auto& t : threads)
                t.join();
        }
    };

    OpenResult out;
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now() + std::chrono::milliseconds(2);
    {
        StopLanes stop{mu, cv, done, threads};
        for (std::size_t k = 0; k < lanes; ++k)
            threads.emplace_back(lane, k);
        out.lagMs.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            const auto due =
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             arrivals[i]));
            std::this_thread::sleep_until(due);
            const auto now = Clock::now();
            {
                std::lock_guard<std::mutex> lk(mu);
                queue.push_back(Req{i, due});
            }
            cv.notify_one();
            out.lagMs.push_back(msBetween(due, now));
        }
    }
    out.wallS = msBetween(t0, Clock::now()) * 1e-3;
    out.cpuS = processCpuSeconds() - cpu0;
    out.attempted = n;

    for (std::size_t k = 0; k < lanes; ++k) {
        OpenResult& r = per[k];
        out.served += r.served;
        out.failed += r.failed;
        out.latMs.insert(out.latMs.end(), r.latMs.begin(), r.latMs.end());
        out.waitMs.insert(out.waitMs.end(), r.waitMs.begin(),
                          r.waitMs.end());
        for (auto& x : r.sampled)
            out.sampled.push_back(std::move(x));
        for (const auto& e : errors[k])
            chk.fail(e);
    }
    return out;
}

// ---------------------------------------------------------------------
// Replay

struct ReplayResult
{
    std::size_t sessions = 0;
    std::size_t attempted = 0;
    std::size_t served = 0;
    std::size_t shed = 0;
    std::size_t failed = 0;
    std::size_t dispatches = 0;
    double wallS = 0.0;
    double cpuS = 0.0;
    double execMs = 0.0;    //!< ServeStats::execTotalMs, summed
    double pricedMs = 0.0;  //!< ServiceModel-priced busy time, summed
    std::vector<double> overheadMs; //!< per session: wall - execTotalMs
    std::vector<Sampled> sampled;
};

/**
 * Replays whole sessions through Server::serve until @p seconds have
 * passed (at least @p min_sessions). Each session serves kRound
 * requests over the first kRound inputs: Poisson arrivals on the
 * virtual clock, then a burst of kCoalesceCap requests a second later
 * that the queue coalesces into the session's last dispatch. That
 * dispatch's predictions are still in the workspace when serve()
 * returns, so every session checks a coalesced (and, when streamed,
 * pipelined) dispatch bitwise against the same group dispatched
 * directly on a tier-less server.
 */
ReplayResult
runReplay(Setup& s, double seconds, std::size_t min_sessions,
          std::uint64_t seed, Checks& chk)
{
    serve::Server& server = *s.replayServer;
    const std::size_t nb = s.batches.size();
    const std::size_t burst = kCoalesceCap;
    std::vector<core::SparseBatch> inputs(
        s.batches.begin(),
        s.batches.begin() + static_cast<std::ptrdiff_t>(std::min(nb, kRound)));
    ReplayResult out;
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    while (out.sessions < min_sessions ||
           msBetween(t0, Clock::now()) < seconds * 1000.0) {
        const std::uint64_t sseed = mix(seed ^ (0x5e55ull << 32) ^ out.sessions);
        std::vector<double> arrivals =
            serve::PoissonLoadGen(kReplayGapMs, sseed).arrivals(kRound - burst);
        const double at = arrivals.back() + kBurstOffsetMs;
        arrivals.insert(arrivals.end(), burst, at);

        const auto a = Clock::now();
        const serve::ServeStats st = server.serve(
            s.dense, inputs, arrivals, core::PrefetchSpec::paperDefault());
        const double wall = msBetween(a, Clock::now());

        ++out.sessions;
        out.attempted += st.arrived;
        out.served += st.served;
        out.shed += st.shed;
        out.failed += st.failed;
        out.dispatches += st.dispatches;
        out.execMs += st.execTotalMs;
        out.pricedMs += st.serverUtilization * st.makespanMs *
                        static_cast<double>(server.numCores());
        out.overheadMs.push_back(wall - st.execTotalMs);

        const std::string tag = "replay session " + std::to_string(out.sessions);
        if (st.arrived != st.served + st.shed + st.failed)
            chk.fail(tag + ": arrived != served + shed + failed");
        if (st.finalTier != 0 || st.degradeEscalations != 0)
            chk.fail(tag + ": left degradation tier 0");
        const core::Tensor& p = server.lastPredictions();
        if (p.size() != burst * kBatch) {
            chk.fail(tag + ": last dispatch holds " +
                     std::to_string(p.size() / kBatch) +
                     " requests, expected the burst of " +
                     std::to_string(burst));
            continue;
        }
        if (!sameBits(p.data(), s.burstExpected.data(), p.size())) {
            chk.fail(tag + ": the served" +
                     std::string(server.config().streamed ? ", streamed"
                                                          : "") +
                     " burst differs from the same group dispatched "
                     "directly");
        }
        if (out.sampled.size() < 2) {
            const std::size_t m = mix(sseed) % burst;
            out.sampled.push_back(Sampled{
                (kRound - burst + m) % nb,
                std::vector<float>(p.data() + m * kBatch,
                                   p.data() + (m + 1) * kBatch)});
        }
    }
    out.wallS = msBetween(t0, Clock::now()) * 1e-3;
    out.cpuS = processCpuSeconds() - cpu0;
    return out;
}

/**
 * Runs @p ops coalescing-identity checks on server 0 and returns how
 * many failed. Each check dispatches the fixed check inputs as one
 * coalesced group (through the server's hot tier when it has one) and
 * compares every member bitwise with the same input served alone on
 * the tier-less server. The inputs do not depend on the run seed and
 * the forward is deterministic, so a check fails in every run or in
 * none.
 */
std::size_t
checkCoalescedIdentity(Setup& s, std::size_t ops)
{
    serve::Server& server = *s.servers[0];
    std::vector<const core::SparseBatch *> parts;
    std::vector<const core::Tensor *> dense;
    for (const auto& cb : s.checkBatches) {
        parts.push_back(&cb);
        dense.push_back(&s.dense);
    }
    std::size_t failed = 0;
    for (std::size_t i = 0; i < ops; ++i) {
        server.executeBatchedAttempt(0, parts, dense, tier0(),
                                     core::PrefetchSpec::paperDefault());
        const core::Tensor& p = server.lastPredictions();
        bool same = p.size() == kCheckMembers * kBatch;
        for (std::size_t m = 0; same && m < kCheckMembers; ++m)
            same = sameBits(p.data() + m * kBatch, s.checkSolo[m].data(),
                            kBatch);
        failed += same ? 0 : 1;
    }
    return failed;
}

void
mergeInto(ReplayResult& into, ReplayResult&& part)
{
    into.sessions += part.sessions;
    into.attempted += part.attempted;
    into.served += part.served;
    into.shed += part.shed;
    into.failed += part.failed;
    into.dispatches += part.dispatches;
    into.wallS += part.wallS;
    into.cpuS += part.cpuS;
    into.execMs += part.execMs;
    into.pricedMs += part.pricedMs;
    into.overheadMs.insert(into.overheadMs.end(), part.overheadMs.begin(),
                           part.overheadMs.end());
    for (auto& x : part.sampled)
        into.sampled.push_back(std::move(x));
}

/** Checks two seeded rows of every sampled block against the
 *  independent reference. Returns the number of rows checked. */
std::size_t
referenceCheck(const WorkloadSpec& spec, const Setup& s,
               const std::vector<Sampled>& sampled, std::uint64_t seed,
               double& max_err, Checks& chk)
{
    const Tolerance tol = referenceTolerance(spec.dtype);
    std::size_t checked = 0;
    double sum = 0.0;
    for (std::size_t i = 0; i < sampled.size(); ++i) {
        for (std::size_t j = 0; j < 2; ++j) {
            const std::size_t row = mix(seed + 31 * i + j) % kBatch;
            const double ref = referencePredict(
                *s.replicas[0], spec.dtype, s.dense,
                s.batches[sampled[i].batch], row);
            const double err = std::abs(sampled[i].preds[row] - ref);
            max_err = std::max(max_err, err);
            sum += err;
            ++checked;
            if (!(err <= tol.maxAbs)) {
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              "reference: batch %zu row %zu served %.9g, "
                              "reference %.9g (tolerance %g)",
                              sampled[i].batch, row,
                              static_cast<double>(sampled[i].preds[row]), ref,
                              tol.maxAbs);
                chk.fail(buf);
            }
        }
    }
    if (checked && !(sum / static_cast<double>(checked) <= tol.meanAbs)) {
        chk.fail("reference: mean error " +
                 std::to_string(sum / static_cast<double>(checked)) +
                 " exceeds " + std::to_string(tol.meanAbs));
    }
    return checked;
}

// ---------------------------------------------------------------------
// Traced run: per-layer probes, one public call at a time

/** Times @p fn over at least @p min_calls calls and ~@p budget_s. */
template <typename Fn>
std::vector<double>
timeCalls(std::size_t min_calls, std::size_t max_calls, double budget_s,
          Fn&& fn)
{
    std::vector<double> ms;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < max_calls; ++i) {
        if (i >= min_calls && msBetween(t0, Clock::now()) > budget_s * 1e3)
            break;
        const auto a = Clock::now();
        fn(i);
        ms.push_back(msBetween(a, Clock::now()));
    }
    return ms;
}

void
layerProbes(const WorkloadSpec& spec, Setup& s, std::vector<Metric>& out,
            std::ostream& log)
{
    const core::DlrmModel& model = *s.replicas[0];
    const auto& cfg = model.config();
    const auto pf = core::PrefetchSpec::paperDefault();
    const std::size_t nb = s.batches.size();
    const core::EmbDtype dt = spec.dtype;

    core::Tensor emb, bottom, inter, pred;
    std::vector<const float *> emb_ptrs;
    model.bottomForward(s.dense, bottom, dt);
    model.embeddingForward(s.batches[0], emb, pf, dt);
    model.interactionForward(bottom, emb, kBatch, inter, emb_ptrs);

    const auto emb_ms = timeCalls(nb, 1000, 1.5, [&](std::size_t i) {
        model.embeddingForward(s.batches[i % nb], emb, pf, dt);
    });
    const auto bot_ms = timeCalls(20, 400, 0.75, [&](std::size_t) {
        model.bottomForward(s.dense, bottom, dt);
    });
    const auto int_ms = timeCalls(20, 400, 0.25, [&](std::size_t) {
        model.interactionForward(bottom, emb, kBatch, inter, emb_ptrs);
    });
    const auto top_ms = timeCalls(20, 400, 0.25, [&](std::size_t) {
        model.topForward(inter, pred, dt);
    });
    core::ForwardWorkspace ws;
    ws.reserve(model, kBatch * kCoalesceCap, cfg.lookups);
    const auto fwd_ms = timeCalls(nb, 1000, 1.5, [&](std::size_t i) {
        ws.forward(model, s.dense, s.batches[i % nb], pf, dt);
    });

    std::vector<const core::SparseBatch *> parts;
    std::vector<const core::Tensor *> dense_parts;
    for (std::size_t i = 0; i < kCoalesceCap; ++i) {
        parts.push_back(&s.batches[i % nb]);
        dense_parts.push_back(&s.dense);
    }
    const auto coal_ms = timeCalls(50, 2000, 0.25, [&](std::size_t) {
        ws.coalesce(parts, dense_parts);
    });

    const std::size_t lookups = cfg.tables * cfg.lookups * kBatch;
    const std::size_t row_bytes =
        model.storeFor(dt).table(0).storedRowBytes();
    double emb_total = 0.0;
    for (double v : emb_ms)
        emb_total += v;
    const double emb_s = emb_total * 1e-3;
    const double calls = static_cast<double>(emb_ms.size());
    const double mlp_flop = (model.bottomMlp().flopsPerSample() +
                             model.topMlp().flopsPerSample()) *
                            static_cast<double>(kBatch);
    const double emb_p50 = median(emb_ms);
    const double bot_p50 = median(bot_ms);
    const double int_p50 = median(int_ms);
    const double top_p50 = median(top_ms);
    const double fwd_p50 = median(fwd_ms);
    const double emb_tail = tailPercentile(emb_ms.size());

    out.push_back({"emb.p50_ms", emb_p50, "ms"});
    out.push_back({"emb.p99_ms", percentile(emb_ms, emb_tail), "ms"});
    out.push_back({"emb.lookups_per_s",
                   calls * static_cast<double>(lookups) / emb_s, "1/s"});
    out.push_back({"emb.gb_per_s",
                   calls * static_cast<double>(lookups * row_bytes) / emb_s *
                       1e-9,
                   "GB/s"});
    out.push_back({"mlp.bottom_p50_ms", bot_p50, "ms"});
    out.push_back({"mlp.top_p50_ms", top_p50, "ms"});
    out.push_back({"mlp.gflop_per_s", mlp_flop / ((bot_p50 + top_p50) * 1e-3) *
                                          1e-9,
                   "GFLOP/s"});
    out.push_back({"interaction.p50_ms", int_p50, "ms"});
    out.push_back({"batching.coalesce_us", median(coal_ms) * 1e3, "us"});
    out.push_back({"forward.stage_sum_ratio",
                   (emb_p50 + bot_p50 + int_p50 + top_p50) / fwd_p50,
                   "ratio"});
    log << "trace: emb calls=" << emb_ms.size() << " (tail p" << emb_tail
        << ") forward p50=" << fwd_p50 << " ms over " << fwd_ms.size()
        << " calls\n";

    // sched: a no-op task's submit-to-completion round trip on a
    // single-core pool like the serving instances use.
    {
        const auto topo = sched::Topology::detect();
        sched::HtThreadPool pool(topo.partition(topo.numPhysicalCores())[0],
                                 false);
        const auto rt = timeCalls(200, 5000, 0.25, [&](std::size_t) {
            pool.submit(0, [] {}).get();
        });
        out.push_back({"sched.roundtrip_us", median(rt) * 1e3, "us"});
    }

    // serve: one request through executeBatchedAttempt on an idle
    // server, and the hot tier on this workload's inputs. Workloads
    // without a tier get a fresh one with the same configuration for
    // the probe only, so tier.* read what a tier would do here.
    serve::Server& server = *s.servers[0];
    const std::vector<const core::Tensor *> dense{&s.dense};
    std::vector<const core::SparseBatch *> one(1);
    const bool own_tier = !server.hotTier();
    if (own_tier) {
        server.attachHotTier(std::make_shared<core::HotTierCache>(
            model.sharedStoreFor(dt), tierConfig()));
        for (std::size_t i = 0; i < 8; ++i) {
            one[0] = &s.batches[i % nb];
            server.executeBatchedAttempt(0, one, dense, tier0(), pf);
        }
    }
    core::HotTierCache& tier = *server.hotTier();
    const core::HotTierStats before = tier.stats();
    std::vector<double> exec_epoch;
    std::uint64_t epochs_seen = before.epochs;
    const auto tier_ms = timeCalls(16, 1000, 1.5, [&](std::size_t i) {
        one[0] = &s.batches[i % nb];
        const double ms =
            server.executeBatchedAttempt(0, one, dense, tier0(), pf);
        const std::uint64_t e = tier.stats().epochs;
        if (e != epochs_seen)
            exec_epoch.push_back(ms);
        epochs_seen = e;
    });
    const core::HotTierStats after = tier.stats();
    const double hits = static_cast<double>(after.hits - before.hits);
    const double total = hits + static_cast<double>(after.misses - before.misses);
    out.push_back({"tier.hit_rate", total > 0 ? hits / total : 0.0, "ratio"});
    out.push_back({"tier.epochs",
                   static_cast<double>(after.epochs - before.epochs), "count"});
    out.push_back({"tier.resident_rows",
                   static_cast<double>(after.residentRows), "count"});
    out.push_back({"tier.epoch_dispatch_p50_ms",
                   exec_epoch.empty() ? 0.0 : median(exec_epoch), "ms"});
    log << "trace: tier " << (own_tier ? "(probe only) " : "")
        << "dispatches=" << tier_ms.size()
        << " with_epoch=" << exec_epoch.size() << "\n";
    if (own_tier) {
        server.attachHotTier(nullptr);
    } else {
        out.push_back({"serve.exec_p50_ms", median(tier_ms), "ms"});
        return;
    }
    const auto exec_ms = timeCalls(nb, 1000, 1.0, [&](std::size_t i) {
        one[0] = &s.batches[i % nb];
        server.executeBatchedAttempt(0, one, dense, tier0(), pf);
    });
    out.push_back({"serve.exec_p50_ms", median(exec_ms), "ms"});
}

std::string
fmt(double v, int prec = 4)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

} // namespace

const std::vector<WorkloadSpec>&
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = [] {
        std::vector<WorkloadSpec> v;
        WorkloadSpec w;

        w = WorkloadSpec{};
        w.name = "rm2-low-open";
        w.model = rm2Geometry();
        w.hotness = traces::Hotness::Low;
        w.r1 = 150.0;
        w.r2 = 300.0;
        w.distinctBatches = 96;
        v.push_back(w);

        w = WorkloadSpec{};
        w.name = "rm1-med-replay";
        w.model = rm1Geometry();
        w.hotness = traces::Hotness::Medium;
        w.replay = true;
        w.streamed = true;
        w.r1 = 24.0;
        w.r2 = 48.0;
        w.distinctBatches = 32;
        v.push_back(w);

        w = WorkloadSpec{};
        w.name = "rm2-high-tier-open";
        w.model = rm2Geometry();
        w.hotness = traces::Hotness::High;
        w.hotTier = true;
        w.r1 = 50.0;
        w.r2 = 100.0;
        w.distinctBatches = 96;
        v.push_back(w);

        w = WorkloadSpec{};
        w.name = "rm1-med-int8-replay";
        w.model = rm1Geometry();
        w.hotness = traces::Hotness::Medium;
        w.dtype = core::EmbDtype::Int8;
        w.replay = true;
        w.r1 = 24.0;
        w.r2 = 48.0;
        w.distinctBatches = 32;
        v.push_back(w);
        return v;
    }();
    return specs;
}

int
runWorkload(const WorkloadSpec& spec, const RunOptions& opt)
{
    std::ostream& log = std::cout;
    Checks chk;

    const HostInfo host = readHostInfo();
    const double fma0 = probeFmaGflopPerS();
    const double lat0 = probeLoadLatencyNs();

    // Set up several times and keep the last: setup time drifts with
    // the host like everything else, so report the median.
    std::vector<double> setup_s, inputs_s, store_s, replicas_s;
    std::unique_ptr<Setup> s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        s.reset();
        s = buildSetup(spec, opt.seed, chk);
        setup_s.push_back(s->totalS);
        inputs_s.push_back(s->inputsS);
        store_s.push_back(s->storeS);
        replicas_s.push_back(s->replicasS);
    }

    const double table_bytes = static_cast<double>(s->store->bytes()) +
                               (s->qstore ? static_cast<double>(s->qstore->bytes())
                                          : 0.0);
    const double llc = static_cast<double>(host.llcBytes);
    log << "host: cpu=\"" << host.cpuModel << "\" simd=" << host.simdLevel
        << " llc_mb=" << fmt(llc / (1u << 20), 1) << " cores=" << host.cores
        << " thp=" << host.thpMode << " source=" << opt.sourceId << "\n";
    log << "workload: " << spec.name << " model=" << spec.model.name
        << " tables=" << spec.model.tables << "x" << spec.model.rows
        << " dim=" << spec.model.dim << " lookups=" << spec.model.lookups
        << " hotness=" << traces::hotnessName(spec.hotness)
        << " dtype=" << core::embDtypeName(spec.dtype)
        << " tier=" << (spec.hotTier ? "4MiB/20000" : "off")
        << " servers=" << s->servers.size() << " seed=" << opt.seed << "\n";
    log << "tables: bytes_mb=" << fmt(table_bytes / (1u << 20), 1)
        << " table_to_llc=" << (llc > 0 ? fmt(table_bytes / llc, 2) : "n/a")
        << "\n";

    // Measured phases. Open workloads spend the whole run in the two
    // open-loop phases; replay workloads give half of it to the replay.
    // Each phase runs in kSlices interleaved slices.
    const double open_s = spec.replay ? opt.seconds / 4.0 : opt.seconds / 2.0;
    const double rates[] = {spec.r1, spec.r2};
    std::size_t rounds_of[2];
    for (std::size_t i = 0; i < 2; ++i) {
        rounds_of[i] = std::max<std::size_t>(
            1, static_cast<std::size_t>(rates[i] * open_s / kRound));
    }
    std::vector<OpenResult> open(2);
    ReplayResult replay;
    for (std::size_t sl = 0; sl < kSlices; ++sl) {
        for (std::size_t i = 0; i < 2; ++i) {
            const std::size_t rounds =
                rounds_of[i] / kSlices + (sl < rounds_of[i] % kSlices ? 1 : 0);
            if (rounds == 0)
                continue;
            mergeInto(open[i],
                      runOpen(*s, rates[i], rounds * kRound,
                              mix(opt.seed ^ ((0x71ull + i) << 8) ^ sl), chk));
        }
        if (spec.replay) {
            mergeInto(replay,
                      runReplay(*s, opt.seconds / 2.0 / kSlices, 1,
                                mix(opt.seed ^ (0x7aull << 8) ^ sl), chk));
        }
    }
    if (!spec.replay && opt.trace) {
        // Open workloads still report the serve() loop's own costs in
        // the traced run, from a few replay sessions.
        replay = runReplay(*s, 0.0, 4, opt.seed, chk);
    }

    std::size_t attempted = 0, served = 0, failed = 0, shed = 0;
    double cpu = 0.0, open_wall = 0.0;
    std::size_t open_served = 0;
    const char *phase_names[] = {"r1", "r2"};
    std::vector<Sampled> sampled;
    for (std::size_t i = 0; i < open.size(); ++i) {
        const OpenResult& r = open[i];
        attempted += r.attempted;
        served += r.served;
        failed += r.failed;
        cpu += r.cpuS;
        open_wall += r.wallS;
        open_served += r.served;
        if (r.attempted != r.served + r.failed)
            chk.fail(std::string("phase ") + phase_names[i] +
                     ": attempted != served + shed + failed");
        const double tp = tailPercentile(r.latMs.size());
        log << "phase " << phase_names[i] << ": open-loop rate="
            << fmt(rates[i], 1) << "/s attempted=" << r.attempted
            << " served=" << r.served << " shed=0 failed=" << r.failed;
        if (!r.latMs.empty()) {
            log << " lat_p50_ms=" << fmt(median(r.latMs))
                << " lat_p" << tp << "_ms=" << fmt(percentile(r.latMs, tp))
                << " lag_p" << tp << "_ms="
                << fmt(percentile(r.lagMs, tp)) << " (p90="
                << fmt(percentile(r.latMs, 90)) << " p95="
                << fmt(percentile(r.latMs, 95)) << ")";
        }
        log << "\n";
        sampled.insert(sampled.end(), r.sampled.begin(), r.sampled.end());
    }
    if (spec.replay || opt.trace) {
        log << "phase replay: sessions=" << replay.sessions
            << " attempted=" << replay.attempted
            << " served=" << replay.served << " shed=" << replay.shed
            << " failed=" << replay.failed
            << " dispatches=" << replay.dispatches
            << (spec.replay ? "" : " (trace only)") << "\n";
        if (replay.attempted !=
            replay.served + replay.shed + replay.failed)
            chk.fail("phase replay: attempted != served + shed + failed");
        sampled.insert(sampled.end(), replay.sampled.begin(),
                       replay.sampled.end());
    }
    if (spec.replay) {
        attempted += replay.attempted;
        served += replay.served;
        failed += replay.failed;
        shed += replay.shed;
        cpu += replay.cpuS;
    }
    if (failed || shed || replay.failed || replay.shed)
        chk.fail("requests were shed or failed");

    // One coalescing-identity check per round of requests attempted.
    std::size_t rounds = 0;
    for (const auto& r : open)
        rounds += r.attempted / kRound;
    rounds += replay.sessions;
    const std::size_t identity_failed = checkCoalescedIdentity(*s, rounds);
    attempted += (spec.replay ? 0 : replay.attempted) + rounds;
    failed += identity_failed;
    log << "check: coalescing identity ops=" << rounds
        << " failed=" << identity_failed << " (fixed inputs, "
        << kCheckMembers << " requests coalesced vs served alone"
        << (spec.hotTier ? ", tier on vs off" : "") << ")\n";

    double max_err = 0.0;
    const std::size_t ref_rows =
        referenceCheck(spec, *s, sampled, opt.seed, max_err, chk);
    log << "check: reference rows=" << ref_rows << " max_abs_err="
        << max_err << " tolerance=" << referenceTolerance(spec.dtype).maxAbs
        << "\n";
    if (ref_rows == 0)
        chk.fail("no served prediction was checked against the reference");

    std::vector<Metric> metrics;
    if (opt.trace) {
        metrics.push_back({"setup.inputs_s", median(inputs_s), "s"});
        metrics.push_back({"setup.store_s", median(store_s), "s"});
        metrics.push_back({"setup.replicas_s", median(replicas_s), "s"});
        layerProbes(spec, *s, metrics, log);
        std::vector<double> wait, lag;
        for (const auto& r : open) {
            wait.insert(wait.end(), r.waitMs.begin(), r.waitMs.end());
            lag.insert(lag.end(), r.lagMs.begin(), r.lagMs.end());
        }
        const std::size_t replay_samples = replay.served * kBatch;
        // The open loop dispatches every request alone.
        metrics.push_back({"serve.samples_per_dispatch",
                           spec.replay
                               ? static_cast<double>(replay_samples) /
                                     static_cast<double>(replay.dispatches)
                               : static_cast<double>(kBatch),
                           "count"});
        metrics.push_back({"serve.queue_wait_p50_ms", median(wait), "ms"});
        metrics.push_back({"serve.queue_wait_p99_ms",
                           percentile(wait, tailPercentile(wait.size())), "ms"});
        metrics.push_back({"loadgen.lag_p99_ms",
                           percentile(lag, tailPercentile(lag.size())), "ms"});
        metrics.push_back({"serve.loop_overhead_ms", median(replay.overheadMs),
                           "ms"});
        metrics.push_back({"serve.model_error_pct",
                           100.0 * std::abs(replay.pricedMs - replay.execMs) /
                               replay.execMs,
                           "%"});
    }

    const double fma1 = probeFmaGflopPerS();
    const double lat1 = probeLoadLatencyNs();
    log << "host.probe: fma_gflop_per_s before=" << fmt(fma0, 1)
        << " after=" << fmt(fma1, 1) << " load_latency_ns before="
        << fmt(lat0, 1) << " after=" << fmt(lat1, 1) << "\n";

    if (opt.trace) {
        metrics.push_back({"host.fma_gflop_per_s", 0.5 * (fma0 + fma1),
                           "GFLOP/s"});
        metrics.push_back({"host.load_latency_ns", 0.5 * (lat0 + lat1), "ns"});
    } else {
        const double replay_samples =
            static_cast<double>(replay.served * kBatch);
        metrics.push_back({"setup_s", median(setup_s), "s"});
        metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
        metrics.push_back({"samples_per_cpu_s",
                           static_cast<double>(served * kBatch) / cpu, "1/s"});
        metrics.push_back({"samples_per_s",
                           spec.replay
                               ? replay_samples / replay.wallS
                               : static_cast<double>(open_served * kBatch) /
                                     open_wall,
                           "1/s"});
        for (std::size_t i = 0; i < open.size(); ++i) {
            const auto& lat = open[i].latMs;
            if (lat.empty())
                continue;
            // Only the median is a result: tail percentiles of a 10 s
            // window swing by more than any usable bound on a shared
            // host, so they stay in the phase lines above.
            metrics.push_back({std::string("lat_p50_ms.") + phase_names[i],
                               median(lat), "ms"});
        }
        log << "setup_s runs:";
        for (double v : setup_s)
            log << " " << fmt(v, 3);
        log << "\n";
    }

    if (chk.count) {
        for (const auto& m : chk.messages)
            std::cerr << "perfbench: FAIL " << m << "\n";
        std::cerr << "perfbench: " << chk.count << " check(s) failed\n";
        log.flush();
        return 1;
    }
    log << resultJson(true, attempted, failed, metrics) << std::endl;
    return 0;
}

} // namespace perfbench
