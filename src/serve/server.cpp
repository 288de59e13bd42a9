#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <stdexcept>
#include <utility>

namespace dlrmopt::serve
{

namespace
{

/** One scheduled attempt in the virtual-time event loop. */
struct Attempt
{
    double readyMs;       //!< earliest virtual start (arrival/backoff)
    std::uint64_t seq;    //!< tie-break for deterministic ordering
    std::uint64_t req;    //!< request id
    std::uint64_t tries;  //!< attempts already burned (0 = first)
    double arrivalMs;     //!< original arrival (latency baseline)
};

struct AttemptLater
{
    bool
    operator()(const Attempt& a, const Attempt& b) const
    {
        if (a.readyMs != b.readyMs)
            return a.readyMs > b.readyMs;
        return a.seq > b.seq;
    }
};

/**
 * Order-sensitive fingerprint of a prediction tensor: a mix64 chain
 * over the raw fp32 bit patterns. Two attempts fingerprint equal iff
 * their predictions are bitwise identical, which is how the
 * resilience tests assert "zero wrong answers served" against a
 * fault-free baseline.
 */
std::uint64_t
fingerprintPredictions(const core::Tensor& pred)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    const float *p = pred.data();
    const std::size_t n = pred.rows() * pred.cols();
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t u;
        std::memcpy(&u, p + i, sizeof(u));
        h = dlrmopt::mix64(h ^ u);
    }
    return h;
}

} // namespace

const char *
instanceStateName(InstanceState s)
{
    switch (s) {
      case InstanceState::Up:
        return "Up";
      case InstanceState::Draining:
        return "Draining";
      case InstanceState::Down:
        return "Down";
      case InstanceState::WarmRestart:
        return "WarmRestart";
    }
    return "?";
}

Server::Server(const core::DlrmModel& model,
               const sched::Topology& topo, const ServerConfig& cfg,
               const FaultInjector *fault)
    : _model(model), _cfg(cfg), _fault(fault), _pool(topo, cfg.pin)
{
    if (!(cfg.slaMs > 0.0) || !std::isfinite(cfg.slaMs))
        throw std::invalid_argument("Server: SLA must be positive");
    cfg.service.validate();
    if (cfg.dtypeServiceEnabled) {
        cfg.serviceBf16.validate();
        cfg.serviceInt8.validate();
    }
    cfg.batching.validate();
    if (cfg.backoffBaseMs < 0.0 ||
        cfg.backoffCapMs < cfg.backoffBaseMs) {
        throw std::invalid_argument(
            "Server: backoff cap must be >= base >= 0");
    }
    if (cfg.streamed) {
        if (!cfg.batching.enabled) {
            throw std::invalid_argument(
                "Server: streamed dispatch requires batching.enabled "
                "(the streamed loop is a batched event loop)");
        }
        // Throws on an out-of-range gather fraction.
        StageServiceModel::split(cfg.service, cfg.gatherFraction);
    }
    // The Server knows its core count, so it can range-check the one
    // FaultConfig knob validate() alone cannot.
    if (fault)
        fault->config().validate(_pool.numCores());
    _activeCores = _pool.numCores();
}

void
Server::setActiveCores(std::size_t n)
{
    if (n > _pool.numCores()) {
        throw std::invalid_argument(
            "Server::setActiveCores: " + std::to_string(n) +
            " exceeds the instance's " +
            std::to_string(_pool.numCores()) + " cores");
    }
    _activeCores = n;
}

void
Server::beginDrain()
{
    if (_lifecycle != InstanceState::Up) {
        throw std::logic_error(
            std::string("Server::beginDrain: instance is ") +
            instanceStateName(_lifecycle) + ", expected Up");
    }
    _lifecycle = InstanceState::Draining;
    // All-or-nothing by default: no new work while draining. A
    // partial drain re-opens a smaller core group via
    // setActiveCores() right after.
    _activeCores = 0;
}

void
Server::cancelDrain()
{
    if (_lifecycle != InstanceState::Draining) {
        throw std::logic_error(
            std::string("Server::cancelDrain: instance is ") +
            instanceStateName(_lifecycle) + ", expected Draining");
    }
    _lifecycle = InstanceState::Up;
    _activeCores = _pool.numCores();
}

void
Server::markDown()
{
    if (_lifecycle != InstanceState::Draining) {
        throw std::logic_error(
            std::string("Server::markDown: instance is ") +
            instanceStateName(_lifecycle) + ", expected Draining");
    }
    _lifecycle = InstanceState::Down;
    _activeCores = 0;
}

void
Server::beginWarmRestart()
{
    if (_lifecycle != InstanceState::Down) {
        throw std::logic_error(
            std::string("Server::beginWarmRestart: instance is ") +
            instanceStateName(_lifecycle) + ", expected Down");
    }
    _lifecycle = InstanceState::WarmRestart;
}

void
Server::completeWarmRestart()
{
    if (_lifecycle != InstanceState::WarmRestart) {
        throw std::logic_error(
            std::string("Server::completeWarmRestart: instance is ") +
            instanceStateName(_lifecycle) + ", expected WarmRestart");
    }
    _lifecycle = InstanceState::Up;
    _activeCores = _pool.numCores();
    ++_restarts;
}

double
Server::executeAttempt(std::size_t core, const core::Tensor& dense,
                const core::SparseBatch& sparse,
                const DegradeState& tier,
                const core::PrefetchSpec& pf, std::uint64_t req,
                std::uint64_t attempt)
{
    return executeAttempt(core, dense, sparse, tier, pf, req, attempt,
                          _fault, nullptr);
}

double
Server::executeAttempt(std::size_t core, const core::Tensor& dense,
                const core::SparseBatch& sparse,
                const DegradeState& tier,
                const core::PrefetchSpec& pf, std::uint64_t req,
                std::uint64_t attempt, const FaultInjector *fault,
                std::uint64_t *pred_fp)
{
    using Clock = std::chrono::steady_clock;
    const core::PrefetchSpec eff_pf =
        tier.prefetchEnabled ? pf : core::PrefetchSpec{};
    const core::EmbDtype dtype = _cfg.effectiveDtype(tier);
    core::DlrmWorkspace ws;
    const auto t0 = Clock::now();

    if (core::usesMpHt(tier.scheme)) {
        // MP-HT stage colocation, exception-safe: the bottom promise
        // is settled on *every* exit path so the sibling can never
        // wait on it forever.
        auto bottom_done = std::make_shared<std::promise<void>>();
        auto bottom_fut = bottom_done->get_future().share();
        auto f1 = _pool.submit(
            core, [this, &dense, &ws, bottom_done] {
                try {
                    _model.bottomForward(dense, ws.bottomOut);
                    bottom_done->set_value();
                } catch (...) {
                    bottom_done->set_exception(
                        std::current_exception());
                    throw;
                }
            });
        auto f2 = _pool.submit(
            core, [this, &sparse, &ws, bottom_fut, eff_pf, req,
                   attempt, fault, dtype] {
                if (fault)
                    fault->maybeThrow(req, attempt);
                _model.embeddingForward(sparse, ws.embOut, eff_pf,
                                        dtype, _hotTier.get());
                bottom_fut.get();
                _model.interactionForward(ws.bottomOut, ws.embOut,
                                          sparse.batchSize,
                                          ws.interOut);
                _model.topForward(ws.interOut, ws.pred);
            });
        // Both tasks reference this frame's workspace: wait for both
        // before any exception can unwind it.
        f1.wait();
        f2.wait();
        f1.get();
        f2.get();
    } else {
        // Sequential degradation tier: one task, one thread.
        auto f = _pool.submit(
            core, [this, &dense, &sparse, &ws, eff_pf, req, attempt,
                   fault, dtype] {
                if (fault)
                    fault->maybeThrow(req, attempt);
                _model.forward(dense, sparse, ws, eff_pf, dtype,
                               _hotTier.get());
            });
        f.wait();
        f.get();
    }
    if (pred_fp)
        *pred_fp = fingerprintPredictions(ws.pred);
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

ServeStats
Server::serve(const core::Tensor& dense,
              const std::vector<core::SparseBatch>& batches,
              const std::vector<double>& arrivals_ms,
              const core::PrefetchSpec& pf)
{
    if (batches.empty())
        throw std::invalid_argument("Server: need at least one batch");
    if (_lifecycle != InstanceState::Up) {
        throw std::logic_error(
            std::string("Server::serve: instance is ") +
            instanceStateName(_lifecycle) + ", not Up");
    }

    if (_cfg.batching.enabled) {
        if (_cfg.streamed)
            return serveStreamed(dense, batches, arrivals_ms, pf);
        return serveBatched(dense, batches, arrivals_ms, pf);
    }

    const std::size_t cores = _pool.numCores();
    const std::size_t rows = _model.config().rows;

    DegradationPolicy policy(_cfg.degrade, _cfg.slaMs);

    // Dense inputs per effective batch size (tiers shrink batches).
    // std::map gives reference stability while tasks read entries.
    std::map<std::size_t, core::Tensor> dense_by_rows;
    const auto denseFor =
        [&](std::size_t n) -> const core::Tensor& {
        auto it = dense_by_rows.find(n);
        if (it == dense_by_rows.end()) {
            core::Tensor t(n, dense.cols());
            std::memcpy(t.data(), dense.data(),
                        n * dense.cols() * sizeof(float));
            it = dense_by_rows.emplace(n, std::move(t)).first;
        }
        return it->second;
    };

    std::priority_queue<Attempt, std::vector<Attempt>, AttemptLater>
        events;
    std::uint64_t seq = 0;
    for (std::size_t r = 0; r < arrivals_ms.size(); ++r) {
        events.push(Attempt{arrivals_ms[r], seq++, r, 0,
                            arrivals_ms[r]});
    }

    std::vector<double> free_at(cores, 0.0);
    ServeStats st;
    st.arrived = arrivals_ms.size();
    double busy = 0.0;
    double makespan = 0.0;

    while (!events.empty()) {
        const Attempt a = events.top();
        events.pop();

        // Earliest-free core, lowest index on ties (deterministic).
        std::size_t core = 0;
        for (std::size_t c = 1; c < cores; ++c) {
            if (free_at[c] < free_at[core])
                core = c;
        }

        const DegradeState tier = policy.state();
        const core::EmbDtype dtype = _cfg.effectiveDtype(tier);
        const double start = std::max(free_at[core], a.readyMs);
        const double wait = start - a.readyMs;
        const double straggle =
            _fault ? _fault->serviceFactor(core) : 1.0;
        const core::SparseBatch& base =
            batches[a.req % batches.size()];
        const std::size_t eff_batch = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::floor(tier.batchFraction *
                              static_cast<double>(base.batchSize))));
        const double service =
            _cfg.serviceModelFor(dtype).serviceMs(eff_batch) *
            _cfg.tierServiceFactor(tier) * straggle;

        // Admission control: shed on arrival when the projected
        // completion already misses the deadline. Retries are always
        // admitted — the work is already paid for.
        if (_cfg.admission && a.tries == 0 &&
            wait + service > _cfg.slaMs) {
            ++st.shed;
            continue;
        }

        // Real execution. Any throw — injected fault, bad_alloc,
        // IndexError from a poisoned index — lands here via the
        // pool's futures instead of killing the process.
        core::SparseBatch sparse = eff_batch < base.batchSize
            ? base.truncated(eff_batch)
            : base;
        if (_fault)
            sparse = _fault->maybeCorrupt(sparse, rows, a.req,
                                          a.tries);

        bool ok = true;
        try {
            st.execTotalMs += executeAttempt(
                core, denseFor(sparse.batchSize), sparse, tier, pf,
                a.req, a.tries);
        } catch (...) {
            ok = false;
        }

        // Failed or not, the attempt burned the core (virtually).
        ++st.dispatches;
        if (dtype != core::EmbDtype::Fp32)
            ++st.quantDispatches;
        const double end = start + service;
        free_at[core] = end;
        busy += service;
        makespan = std::max(makespan, end);

        if (ok) {
            ++st.served;
            const double latency = end - a.arrivalMs;
            st.latency.add(latency);
            policy.observe(latency);
        } else if (a.tries < _cfg.maxRetries) {
            ++st.retried;
            const double backoff = std::min(
                _cfg.backoffBaseMs *
                    static_cast<double>(1ull << a.tries),
                _cfg.backoffCapMs);
            events.push(Attempt{end + backoff, seq++, a.req,
                                a.tries + 1, a.arrivalMs});
        } else {
            ++st.failed;
        }
    }

    st.makespanMs = makespan;
    if (makespan > 0.0) {
        st.serverUtilization =
            busy / (makespan * static_cast<double>(cores));
    }
    st.degradeEscalations = policy.escalations();
    st.finalTier = policy.tier();
    return st;
}

double
Server::executeBatchedAttempt(
    std::size_t core,
    const std::vector<const core::SparseBatch *>& parts,
    const std::vector<const core::Tensor *>& dense_parts,
    const DegradeState& tier, const core::PrefetchSpec& pf)
{
    return executeBatchedAttempt(core, parts, dense_parts, tier, pf,
                                 _model);
}

double
Server::executeBatchedAttempt(
    std::size_t core,
    const std::vector<const core::SparseBatch *>& parts,
    const std::vector<const core::Tensor *>& dense_parts,
    const DegradeState& tier, const core::PrefetchSpec& pf,
    const core::DlrmModel& model)
{
    using Clock = std::chrono::steady_clock;
    const core::PrefetchSpec eff_pf =
        tier.prefetchEnabled ? pf : core::PrefetchSpec{};
    const core::EmbDtype dtype = _cfg.effectiveDtype(tier);

    // Grow the persistent workspace when this group exceeds its
    // current capacity (direct fleet callers skip serveBatched's
    // upfront sizing); steady-state dispatches stay allocation-free.
    std::size_t total = 0;
    std::size_t max_lookups = 1;
    for (const core::SparseBatch *p : parts) {
        total += p->batchSize;
        for (const auto& v : p->indices) {
            max_lookups = std::max<std::size_t>(
                max_lookups,
                (v.size() + p->batchSize - 1) / p->batchSize);
        }
    }
    if (_batchWs.maxBatch() < total)
        _batchWs.reserve(model, total, max_lookups);

    // Coalesce on the serving thread (pure data movement into the
    // persistent workspace), run the fused forward on the pool.
    const core::SparseBatch& merged =
        _batchWs.coalesce(parts, dense_parts);
    const core::Tensor& dense = _batchWs.stagedDense();

    const auto t0 = Clock::now();
    auto f = _pool.submit(core, [this, &model, &dense, &merged, eff_pf,
                                 dtype] {
        _batchWs.forward(model, dense, merged, eff_pf, dtype,
                         _hotTier.get());
    });
    f.wait();
    f.get();
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

ServeStats
Server::serveBatched(const core::Tensor& dense,
                     const std::vector<core::SparseBatch>& batches,
                     const std::vector<double>& arrivals_ms,
                     const core::PrefetchSpec& pf)
{
    const std::size_t cores = _pool.numCores();
    const std::size_t rows = _model.config().rows;

    DegradationPolicy policy(_cfg.degrade, _cfg.slaMs);

    // Size the persistent workspace for the largest possible
    // coalesced dispatch; every later reshape stays within capacity.
    std::size_t max_req_batch = 1;
    std::size_t max_lookups = 1;
    for (const auto& b : batches) {
        max_req_batch = std::max(max_req_batch, b.batchSize);
        for (const auto& v : b.indices) {
            max_lookups = std::max<std::size_t>(
                max_lookups,
                (v.size() + b.batchSize - 1) / b.batchSize);
        }
    }
    const std::size_t max_coalesced =
        max_req_batch * _cfg.batching.maxRequests;
    if (_batchWs.maxBatch() < max_coalesced)
        _batchWs.reserve(_model, max_coalesced, max_lookups);

    // Dense inputs per request batch size, reference-stable.
    std::map<std::size_t, core::Tensor> dense_by_rows;
    const auto denseFor =
        [&](std::size_t n) -> const core::Tensor& {
        auto it = dense_by_rows.find(n);
        if (it == dense_by_rows.end()) {
            core::Tensor t(n, dense.cols());
            std::memcpy(t.data(), dense.data(),
                        n * dense.cols() * sizeof(float));
            it = dense_by_rows.emplace(n, std::move(t)).first;
        }
        return it->second;
    };

    BatchQueue queue(_cfg.batching);
    std::uint64_t seq = 0;
    for (std::size_t r = 0; r < arrivals_ms.size(); ++r) {
        const auto& b = batches[r % batches.size()];
        queue.push(PendingRequest{arrivals_ms[r], seq++, r, 0,
                                  arrivals_ms[r], b.batchSize});
    }

    std::vector<double> free_at(cores, 0.0);
    ServeStats st;
    st.arrived = arrivals_ms.size();
    double busy = 0.0;
    double makespan = 0.0;

    // Reused per-dispatch scratch (cleared, never shrunk).
    std::vector<PendingRequest> members;
    std::vector<const core::SparseBatch *> parts;
    std::vector<const core::Tensor *> dense_parts;
    std::vector<std::size_t> member_sizes;
    std::vector<char> member_ok;
    std::vector<core::SparseBatch> corrupted;

    while (!queue.empty()) {
        // Earliest-free core, lowest index on ties (deterministic).
        std::size_t core = 0;
        for (std::size_t c = 1; c < cores; ++c) {
            if (free_at[c] < free_at[core])
                core = c;
        }

        const DegradeState tier = policy.state();
        const core::EmbDtype dtype = _cfg.effectiveDtype(tier);
        const double straggle =
            _fault ? _fault->serviceFactor(core) : 1.0;

        // Degradation shrinks how much we coalesce before anything
        // is shed: less batching trims the service estimate, which
        // keeps marginal requests admissible.
        const std::size_t cap = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::floor(tier.batchFraction *
                              static_cast<double>(
                                  _cfg.batching.maxRequests))));

        // Quantized tiers price with their own service model when
        // dtype pricing is enabled (cheaper per sample, so marginal
        // requests stay admissible — precision drops before work is
        // shed).
        const ServiceModel& tier_service =
            _cfg.serviceModelFor(dtype);
        queue.nextBatch(free_at[core], cap, _cfg.slaMs, tier_service,
                        straggle, members);

        double latest_ready = members.front().readyMs;
        std::size_t total_samples = 0;
        for (const auto& m : members) {
            latest_ready = std::max(latest_ready, m.readyMs);
            total_samples += m.samples;
        }
        const double start = std::max(free_at[core], latest_ready);
        const double service =
            tier_service.serviceMs(total_samples) * straggle;

        // Admission control: a solo head on its first try whose
        // projected completion misses the deadline is shed (multi-
        // member groups are deadline-feasible by construction, and
        // retries are always admitted).
        if (_cfg.admission && members.size() == 1 &&
            members.front().tries == 0 &&
            start + service >
                members.front().arrivalMs + _cfg.slaMs) {
            ++st.shed;
            continue;
        }

        // Per-member fault resolution *before* the fused forward, so
        // one poisoned request fails alone instead of taking its
        // batch siblings down with it. Hits burn the member's attempt
        // exactly like the unbatched path.
        parts.clear();
        dense_parts.clear();
        member_sizes.clear();
        member_ok.assign(members.size(), 1);
        corrupted.clear();
        if (_fault)
            corrupted.reserve(members.size());
        for (std::size_t i = 0; i < members.size(); ++i) {
            const auto& m = members[i];
            const core::SparseBatch *sparse =
                &batches[m.req % batches.size()];
            if (_fault) {
                try {
                    _fault->maybeThrow(m.req, m.tries);
                } catch (...) {
                    member_ok[i] = 0;
                    continue;
                }
                corrupted.push_back(_fault->maybeCorrupt(
                    *sparse, rows, m.req, m.tries));
                sparse = &corrupted.back();
                if (!sparse->valid(rows)) {
                    // Poisoned index: the bounds-checked kernel would
                    // raise IndexError; fail the member pre-dispatch.
                    member_ok[i] = 0;
                    continue;
                }
            }
            parts.push_back(sparse);
            dense_parts.push_back(&denseFor(m.samples));
            member_sizes.push_back(m.samples);
        }

        bool exec_ok = true;
        if (!parts.empty()) {
            try {
                st.execTotalMs += executeBatchedAttempt(
                    core, parts, dense_parts, tier, pf);
                core::splitPredictions(_batchWs.predictions(),
                                       member_sizes, _splitScratch);
            } catch (...) {
                exec_ok = false;
            }
        }

        // The dispatch burned the core whether or not members failed.
        ++st.dispatches;
        if (dtype != core::EmbDtype::Fp32)
            ++st.quantDispatches;
        const double end = start + service;
        free_at[core] = end;
        busy += service;
        makespan = std::max(makespan, end);

        for (std::size_t i = 0; i < members.size(); ++i) {
            const auto& m = members[i];
            const bool ok = member_ok[i] && exec_ok;
            if (ok) {
                ++st.served;
                const double latency = end - m.arrivalMs;
                st.latency.add(latency);
                policy.observe(latency);
            } else if (m.tries < _cfg.maxRetries) {
                ++st.retried;
                const double backoff = std::min(
                    _cfg.backoffBaseMs *
                        static_cast<double>(1ull << m.tries),
                    _cfg.backoffCapMs);
                queue.push(PendingRequest{end + backoff, seq++, m.req,
                                          m.tries + 1, m.arrivalMs,
                                          m.samples});
            } else {
                ++st.failed;
            }
        }
    }

    st.makespanMs = makespan;
    if (makespan > 0.0) {
        st.serverUtilization =
            busy / (makespan * static_cast<double>(cores));
    }
    st.degradeEscalations = policy.escalations();
    st.finalTier = policy.tier();
    return st;
}

ServeStats
Server::serveStreamed(const core::Tensor& dense,
                      const std::vector<core::SparseBatch>& batches,
                      const std::vector<double>& arrivals_ms,
                      const core::PrefetchSpec& pf)
{
    using Clock = std::chrono::steady_clock;
    constexpr std::size_t kNoSet =
        std::numeric_limits<std::size_t>::max();

    const std::size_t cores = _pool.numCores();
    const std::size_t rows = _model.config().rows;

    // Lane assignment mirrors Topology::pipelineSplit: the gather
    // lane takes the first (larger) core group, the compute lane the
    // first core of the second group. With one core both lanes share
    // it and every dispatch collapses to sequential.
    const std::size_t gather_core = 0;
    const std::size_t compute_core = cores > 1 ? (cores + 1) / 2 : 0;

    const StageServiceModel stages =
        StageServiceModel::split(_cfg.service, _cfg.gatherFraction);

    DegradationPolicy policy(_cfg.degrade, _cfg.slaMs);

    // Size the persistent workspace for the largest possible
    // coalesced dispatch; every later reshape stays within capacity.
    std::size_t max_req_batch = 1;
    std::size_t max_lookups = 1;
    for (const auto& b : batches) {
        max_req_batch = std::max(max_req_batch, b.batchSize);
        for (const auto& v : b.indices) {
            max_lookups = std::max<std::size_t>(
                max_lookups,
                (v.size() + b.batchSize - 1) / b.batchSize);
        }
    }
    const std::size_t max_coalesced =
        max_req_batch * _cfg.batching.maxRequests;
    if (_batchWs.maxBatch() < max_coalesced)
        _batchWs.reserve(_model, max_coalesced, max_lookups);
    _batchWs.resetRotation();

    // Dense inputs per request batch size, reference-stable.
    std::map<std::size_t, core::Tensor> dense_by_rows;
    const auto denseFor =
        [&](std::size_t n) -> const core::Tensor& {
        auto it = dense_by_rows.find(n);
        if (it == dense_by_rows.end()) {
            core::Tensor t(n, dense.cols());
            std::memcpy(t.data(), dense.data(),
                        n * dense.cols() * sizeof(float));
            it = dense_by_rows.emplace(n, std::move(t)).first;
        }
        return it->second;
    };

    BatchQueue queue(_cfg.batching);
    std::uint64_t seq = 0;
    for (std::size_t r = 0; r < arrivals_ms.size(); ++r) {
        const auto& b = batches[r % batches.size()];
        queue.push(PendingRequest{arrivals_ms[r], seq++, r, 0,
                                  arrivals_ms[r], b.batchSize});
    }

    ServeStats st;
    st.arrived = arrivals_ms.size();
    double gather_free = 0.0;
    double compute_free = 0.0;
    double gather_busy = 0.0;
    double compute_busy = 0.0;
    double makespan = 0.0;

    // Compute-end times of the last two dispatches: gather k may not
    // start before compute k-2 finishes (its StageBuffers set is
    // still being read until then — the two-set ring constraint).
    double ring[core::ForwardWorkspace::numSets] = {0.0, 0.0};
    std::size_t dispatch_idx = 0;

    // The in-flight dispatch: gathered into a StageBuffers set, its
    // compute stage not yet run. Retired when that compute finishes.
    struct Inflight
    {
        std::vector<PendingRequest> members;
        std::vector<char> ok;           //!< per-member pre-dispatch ok
        std::vector<std::size_t> sizes; //!< sizes of dispatched parts
        std::size_t set = 0;            //!< staged StageBuffers set
        bool gatherOk = false;          //!< gather stage succeeded
        double endMs = 0.0;             //!< virtual compute-stage end
        bool active = false;
    };
    Inflight pending;

    // Reused per-dispatch scratch (cleared, never shrunk).
    std::vector<PendingRequest> members;
    std::vector<const core::SparseBatch *> parts;
    std::vector<const core::Tensor *> dense_parts;
    std::vector<std::size_t> member_sizes;
    std::vector<char> member_ok;
    std::vector<core::SparseBatch> corrupted;

    // Retires the in-flight dispatch: members whose pre-dispatch
    // resolution, gather stage, and compute stage all succeeded are
    // served at its virtual compute end; the rest retry or fail.
    const auto retire = [&](bool compute_ok) {
        for (std::size_t i = 0; i < pending.members.size(); ++i) {
            const auto& m = pending.members[i];
            const bool ok =
                pending.ok[i] && pending.gatherOk && compute_ok;
            if (ok) {
                ++st.served;
                const double latency = pending.endMs - m.arrivalMs;
                st.latency.add(latency);
                policy.observe(latency);
            } else if (m.tries < _cfg.maxRetries) {
                ++st.retried;
                const double backoff = std::min(
                    _cfg.backoffBaseMs *
                        static_cast<double>(1ull << m.tries),
                    _cfg.backoffCapMs);
                queue.push(PendingRequest{pending.endMs + backoff,
                                          seq++, m.req, m.tries + 1,
                                          m.arrivalMs, m.samples});
            } else {
                ++st.failed;
            }
        }
        pending.active = false;
    };

    // Runs the in-flight dispatch's compute stage alone (pipeline
    // drain: queue empty, tier collapse, or end of session).
    const auto drainPending = [&]() {
        if (!pending.active)
            return;
        bool compute_ok = pending.gatherOk && pending.set != kNoSet;
        if (compute_ok) {
            const auto t0 = Clock::now();
            auto f = _pool.submit(
                compute_core, [this, set = pending.set] {
                    _batchWs.stageCompute(_model, set);
                });
            f.wait();
            try {
                f.get();
            } catch (...) {
                compute_ok = false;
            }
            st.execTotalMs +=
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          t0)
                    .count();
            if (compute_ok) {
                core::splitPredictions(
                    _batchWs.predictions(pending.set), pending.sizes,
                    _splitScratch);
            }
        }
        retire(compute_ok);
    };

    while (!queue.empty() || pending.active) {
        if (queue.empty()) {
            drainPending();
            continue;
        }

        const DegradeState tier = policy.state();
        const core::EmbDtype dtype = _cfg.effectiveDtype(tier);
        const bool overlap = core::usesMpHt(tier.scheme) && cores > 1;
        // Tier collapse: finish the in-flight stage before running
        // sequential dispatches (the pipeline empties).
        if (!overlap)
            drainPending();

        const double gather_straggle =
            _fault ? _fault->serviceFactor(gather_core) : 1.0;
        const double compute_straggle =
            _fault ? _fault->serviceFactor(compute_core) : 1.0;

        // Degradation shrinks how much we coalesce before anything
        // is shed, exactly like serveBatched.
        const std::size_t cap = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::floor(tier.batchFraction *
                              static_cast<double>(
                                  _cfg.batching.maxRequests))));

        // Group feasibility is priced with the *sequential* model:
        // a dispatch entering an empty pipeline pays both stages.
        queue.nextBatch(gather_free, cap, _cfg.slaMs, _cfg.service,
                        gather_straggle, members);

        double latest_ready = members.front().readyMs;
        std::size_t total_samples = 0;
        for (const auto& m : members) {
            latest_ready = std::max(latest_ready, m.readyMs);
            total_samples += m.samples;
        }

        const double g_ms = stages.gatherMs(total_samples) *
                            tier.serviceFactor * gather_straggle;
        const double c_ms = stages.computeMs(total_samples) *
                            tier.serviceFactor * compute_straggle;

        double gather_start, gather_end, compute_start, compute_end;
        if (overlap) {
            gather_start =
                std::max({gather_free, latest_ready,
                          ring[dispatch_idx %
                               core::ForwardWorkspace::numSets]});
            gather_end = gather_start + g_ms;
            compute_start = std::max(compute_free, gather_end);
            compute_end = compute_start + c_ms;
        } else {
            gather_start = std::max({gather_free, compute_free,
                                     latest_ready});
            gather_end = gather_start + g_ms;
            compute_start = gather_end;
            compute_end = compute_start + c_ms;
        }

        // Admission control: a solo head on its first try whose
        // projected *pipelined* completion misses the deadline is
        // shed (multi-member groups are deadline-feasible by
        // construction, and retries are always admitted).
        if (_cfg.admission && members.size() == 1 &&
            members.front().tries == 0 &&
            compute_end > members.front().arrivalMs + _cfg.slaMs) {
            ++st.shed;
            continue;
        }

        // Per-member fault resolution before anything is staged, so
        // one poisoned request fails alone instead of taking its
        // batch siblings down with it.
        parts.clear();
        dense_parts.clear();
        member_sizes.clear();
        member_ok.assign(members.size(), 1);
        corrupted.clear();
        if (_fault)
            corrupted.reserve(members.size());
        for (std::size_t i = 0; i < members.size(); ++i) {
            const auto& m = members[i];
            const core::SparseBatch *sparse =
                &batches[m.req % batches.size()];
            if (_fault) {
                try {
                    _fault->maybeThrow(m.req, m.tries);
                } catch (...) {
                    member_ok[i] = 0;
                    continue;
                }
                corrupted.push_back(_fault->maybeCorrupt(
                    *sparse, rows, m.req, m.tries));
                sparse = &corrupted.back();
                if (!sparse->valid(rows)) {
                    member_ok[i] = 0;
                    continue;
                }
            }
            parts.push_back(sparse);
            dense_parts.push_back(&denseFor(m.samples));
            member_sizes.push_back(m.samples);
        }

        // The dispatch burns both lanes whether or not members
        // failed (matching serveBatched's accounting).
        ++st.dispatches;
        if (dtype != core::EmbDtype::Fp32)
            ++st.quantDispatches;
        gather_free = gather_end;
        compute_free = compute_end;
        gather_busy += g_ms;
        compute_busy += c_ms;
        makespan = std::max(makespan, compute_end);
        ring[dispatch_idx % core::ForwardWorkspace::numSets] =
            compute_end;
        ++dispatch_idx;

        if (overlap) {
            // Really overlapped: this dispatch's gather runs on the
            // gather lane while the in-flight dispatch's compute runs
            // on the compute lane — disjoint StageBuffers sets.
            std::size_t staged = kNoSet;
            bool gather_ok = true;
            bool compute_ok = true;
            const auto t0 = Clock::now();
            std::future<void> gf, cf;
            if (!parts.empty()) {
                gf = _pool.submit(gather_core, [&] {
                    const core::PrefetchSpec eff_pf =
                        tier.prefetchEnabled ? pf
                                             : core::PrefetchSpec{};
                    staged = _batchWs.stageGather(_model, parts,
                                                  dense_parts, eff_pf,
                                                  dtype,
                                                  _hotTier.get());
                });
            }
            const bool run_compute = pending.active &&
                                     pending.gatherOk &&
                                     pending.set != kNoSet;
            if (run_compute) {
                cf = _pool.submit(compute_core,
                                  [this, set = pending.set] {
                                      _batchWs.stageCompute(_model,
                                                            set);
                                  });
            }
            if (gf.valid())
                gf.wait();
            if (cf.valid())
                cf.wait();
            try {
                if (gf.valid())
                    gf.get();
            } catch (...) {
                gather_ok = false;
            }
            try {
                if (cf.valid())
                    cf.get();
            } catch (...) {
                compute_ok = false;
            }
            st.execTotalMs +=
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          t0)
                    .count();
            if (pending.active) {
                const bool ok = run_compute && compute_ok;
                if (ok) {
                    core::splitPredictions(
                        _batchWs.predictions(pending.set),
                        pending.sizes, _splitScratch);
                }
                retire(ok);
            }
            pending.members.swap(members);
            pending.ok.swap(member_ok);
            pending.sizes.swap(member_sizes);
            pending.set = staged;
            pending.gatherOk = gather_ok && staged != kNoSet;
            pending.endMs = compute_end;
            pending.active = true;
        } else {
            // Sequential tier (or a single core): both stages back
            // to back on the gather lane, retired immediately.
            bool ok = !parts.empty();
            std::size_t staged = kNoSet;
            if (!parts.empty()) {
                const auto t0 = Clock::now();
                auto f = _pool.submit(gather_core, [&] {
                    const core::PrefetchSpec eff_pf =
                        tier.prefetchEnabled ? pf
                                             : core::PrefetchSpec{};
                    const std::size_t s = _batchWs.stageGather(
                        _model, parts, dense_parts, eff_pf, dtype,
                        _hotTier.get());
                    _batchWs.stageCompute(_model, s);
                    staged = s;
                });
                f.wait();
                try {
                    f.get();
                } catch (...) {
                    ok = false;
                }
                st.execTotalMs +=
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - t0)
                        .count();
                if (ok && staged != kNoSet) {
                    core::splitPredictions(
                        _batchWs.predictions(staged), member_sizes,
                        _splitScratch);
                }
            }
            pending.members.swap(members);
            pending.ok.swap(member_ok);
            pending.sizes.swap(member_sizes);
            pending.set = staged;
            pending.gatherOk = ok;
            pending.endMs = compute_end;
            pending.active = true;
            retire(ok);
        }
    }
    drainPending();

    st.makespanMs = makespan;
    st.gatherBusyMs = gather_busy;
    st.computeBusyMs = compute_busy;
    if (makespan > 0.0) {
        const double lanes = cores > 1 ? 2.0 : 1.0;
        st.serverUtilization =
            (gather_busy + compute_busy) / (makespan * lanes);
    }
    st.degradeEscalations = policy.escalations();
    st.finalTier = policy.tier();
    return st;
}

} // namespace dlrmopt::serve
