/**
 * @file
 * Tests for the pinned hot-row tier over the shared cold store: bag
 * output must be bitwise-identical tier on/off at every EmbDtype,
 * counted admission must promote the measured hot set and re-converge
 * after the hot set drifts, a flipped tier bit must be quarantined
 * and repaired with zero wrong outputs (the cold store stays the
 * source of truth one tier down), retargeting must carry the resident
 * set onto a new version's bytes, and the concurrent
 * bag x epoch x scrub x retarget interleaving must stay torn-free
 * (exercised under TSan via the sanitize-threads preset). An oracle
 * recomputes every epoch's selection from the counters read just
 * before it, and the stable-slot epoch must neither bless a flipped
 * survivor with a fresh sum nor miss any single-bit flip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>
#include <tuple>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/dlrm.hpp"
#include "core/embedding_store.hpp"
#include "core/errors.hpp"
#include "core/hot_tier.hpp"

namespace
{

using namespace dlrmopt::core;
using dlrmopt::RowIndex;

ModelConfig
tinyModel()
{
    ModelConfig m;
    m.name = "tier_tiny";
    m.cls = ModelClass::RMC2;
    m.rows = 2048;
    m.dim = 32;
    m.tables = 3;
    m.lookups = 6;
    m.bottomMlp = {32, 24, 32};
    m.topMlp = {8, 1};
    return m;
}

/**
 * A skewed index stream: 80% of lookups land in a small hot window
 * starting at @p hot_base (wrapping), the rest spread uniformly.
 */
void
makeBag(const ModelConfig& m, std::size_t samples, std::uint64_t seed,
        std::size_t hot_base, std::size_t hot_rows,
        std::vector<RowIndex>& indices, std::vector<RowIndex>& offsets)
{
    indices.clear();
    offsets.clear();
    for (std::size_t s = 0; s <= samples; ++s)
        offsets.push_back(static_cast<RowIndex>(s * m.lookups));
    for (std::size_t i = 0; i < samples * m.lookups; ++i) {
        const std::uint64_t r = dlrmopt::mix64(seed + i);
        const std::size_t row =
            (r % 5 != 0) ? (hot_base + r % hot_rows) % m.rows
                         : r % m.rows;
        indices.push_back(static_cast<RowIndex>(row));
    }
}

/** Warm the tier's admission counters from the stream and promote. */
void
warmFromStream(HotTierCache& tier, std::size_t table,
               const std::vector<RowIndex>& indices)
{
    for (const RowIndex idx : indices)
        tier.recordAccess(table, idx);
    tier.endEpoch();
}

/** Slot stride the tier gives @p store's rows (one 64 B line min). */
std::size_t
strideOf(const EmbeddingStore& store)
{
    return (store.table(0).storedRowBytes() + 63) / 64 * 64;
}

/**
 * Tier block holding resident (table, row), found from the outside: a
 * flip makes exactly that block fail its sum, and flipping back
 * restores it. Needs every block clean on entry.
 */
std::size_t
blockOfRow(HotTierCache& tier, std::size_t table, RowIndex row)
{
    EXPECT_TRUE(tier.flipBit(table, row, 0));
    const std::vector<std::size_t> bad = tier.findCorruptBlocks();
    EXPECT_TRUE(tier.flipBit(table, row, 0));
    EXPECT_EQ(bad.size(), 1u);
    return bad.empty() ? 0 : bad.front();
}

TEST(HotTierConfig, ValidateRejectsBadKnobs)
{
    HotTierConfig hc;
    hc.decay = 1.0;
    EXPECT_THROW(hc.validate(), std::invalid_argument);
    hc = {};
    hc.decay = -0.1;
    EXPECT_THROW(hc.validate(), std::invalid_argument);
    hc = {};
    hc.blockRows = 0;
    EXPECT_THROW(hc.validate(), std::invalid_argument);
    hc = {};
    hc.minAccesses = 0;
    EXPECT_THROW(hc.validate(), std::invalid_argument);
    hc = {};
    hc.validate();

    EXPECT_THROW(HotTierCache(nullptr, hc), std::invalid_argument);
}

TEST(HotTier, BudgetSizingAndLineAlignedSlots)
{
    const auto m = tinyModel();
    for (const EmbDtype dt :
         {EmbDtype::Fp32, EmbDtype::Bf16, EmbDtype::Int8}) {
        const auto store = EmbeddingStore::create(m, 7, 64, dt);
        HotTierConfig hc;
        hc.budgetBytes = 64 * 1024;
        HotTierCache tier(store, hc);
        const std::size_t row_bytes = store->table(0).storedRowBytes();
        const std::size_t stride = tier.slotStride();
        EXPECT_EQ(stride % 64, 0u);
        EXPECT_GE(stride, row_bytes);
        EXPECT_LT(stride, row_bytes + 64);
        EXPECT_EQ(tier.capacityRows(), hc.budgetBytes / stride);
        EXPECT_EQ(tier.dtype(), dt);
        EXPECT_TRUE(tier.matches(*store));
    }
}

TEST(HotTier, ZeroBudgetIsAPassThrough)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 7);
    HotTierCache tier(store, HotTierConfig{});
    EXPECT_EQ(tier.capacityRows(), 0u);

    std::vector<RowIndex> idx, off;
    makeBag(m, 4, 11, 0, 64, idx, off);
    std::vector<float> got(4 * m.dim), want(4 * m.dim);
    tier.bag(0, idx.data(), off.data(), 4, got.data());
    store->table(0).bag(idx.data(), off.data(), 4, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0);
    const auto st = tier.stats();
    EXPECT_EQ(st.hits, 0u);
    EXPECT_EQ(st.misses, 4u * m.lookups);
}

TEST(HotTier, BagIsBitwiseIdenticalAtEveryDtype)
{
    const auto m = tinyModel();
    const std::size_t samples = 12;
    for (const EmbDtype dt :
         {EmbDtype::Fp32, EmbDtype::Bf16, EmbDtype::Int8}) {
        const auto store = EmbeddingStore::create(m, 9, 64, dt);
        HotTierConfig hc;
        hc.budgetBytes = 512 * 64 * 4; // plenty for the hot window
        hc.blockRows = 16;
        hc.minAccesses = 1;
        HotTierCache tier(store, hc);

        std::vector<RowIndex> idx, off;
        makeBag(m, samples, 33, 100, 128, idx, off);
        // Count every table's stream, then promote in ONE epoch — a
        // per-table epoch would decay earlier tables' single-access
        // rows below minAccesses before the last promotion ran.
        for (std::size_t t = 0; t < m.tables; ++t) {
            for (const RowIndex i : idx)
                tier.recordAccess(t, i);
        }
        tier.endEpoch();
        ASSERT_GT(tier.stats().residentRows, 0u);

        std::vector<float> got(samples * m.dim);
        std::vector<float> want(samples * m.dim);
        std::vector<float> ref(samples * m.dim);
        for (std::size_t t = 0; t < m.tables; ++t) {
            tier.bag(t, idx.data(), off.data(), samples, got.data());
            store->table(t).bag(idx.data(), off.data(), samples,
                                want.data());
            store->table(t).bagRef(idx.data(), off.data(), samples,
                                   ref.data());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(float)),
                      0)
                << "tier vs cold bag, dtype "
                << embDtypeName(dt);
            EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                                  got.size() * sizeof(float)),
                      0)
                << "tier vs scalar reference, dtype "
                << embDtypeName(dt);
        }
        const auto st = tier.stats();
        EXPECT_GT(st.hits, 0u);
        EXPECT_GT(st.hitRate(), 0.5);
    }
}

TEST(HotTier, BagThrowsTheColdPathsIndexError)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 9);
    HotTierConfig hc;
    hc.budgetBytes = 64 * 1024;
    HotTierCache tier(store, hc);

    std::vector<RowIndex> idx = {0, static_cast<RowIndex>(m.rows)};
    std::vector<RowIndex> off = {0, 2};
    std::vector<float> out(m.dim);
    EXPECT_THROW(tier.bag(0, idx.data(), off.data(), 1, out.data()),
                 IndexError);
    EXPECT_THROW(tier.recordAccess(0, static_cast<RowIndex>(m.rows)),
                 std::invalid_argument);
    EXPECT_THROW(tier.recordAccess(m.tables, 0),
                 std::invalid_argument);
}

TEST(HotTier, PromotesTheCountedHotSetAndDecays)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 5);
    HotTierConfig hc;
    hc.budgetBytes = 8 * 1024;
    hc.minAccesses = 2;
    hc.decay = 0.5;
    HotTierCache tier(store, hc);
    const std::size_t cap = tier.capacityRows();
    ASSERT_GT(cap, 8u);

    // Rows 0..cap-1 of table 0 hot, row cap+5 seen once (below
    // minAccesses), everything else untouched.
    for (std::size_t r = 0; r < cap; ++r)
        tier.recordAccess(0, static_cast<RowIndex>(r), 10);
    tier.recordAccess(0, static_cast<RowIndex>(cap + 5), 1);
    tier.endEpoch();

    auto st = tier.stats();
    EXPECT_EQ(st.residentRows, cap);
    EXPECT_EQ(st.promotions, cap);
    EXPECT_EQ(st.epochs, 1u);
    for (std::size_t r = 0; r < cap; ++r)
        EXPECT_TRUE(tier.isResident(0, static_cast<RowIndex>(r)));
    EXPECT_FALSE(
        tier.isResident(0, static_cast<RowIndex>(cap + 5)));
    // Decay halved the counters at the boundary.
    EXPECT_EQ(tier.accessCount(0, 0), 5u);
}

TEST(HotTier, ReconvergesAfterHotSetDrift)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 5);
    HotTierConfig hc;
    hc.budgetBytes = 8 * 1024;
    hc.minAccesses = 1;
    hc.decay = 0.25; // forget fast: drift should win in few epochs
    HotTierCache tier(store, hc);
    const std::size_t cap = tier.capacityRows();

    // Epoch 1: hot set A = rows [0, cap) of table 0.
    for (std::size_t r = 0; r < cap; ++r)
        tier.recordAccess(0, static_cast<RowIndex>(r), 100);
    tier.endEpoch();
    ASSERT_TRUE(tier.isResident(0, 0));

    // The session drifts: hot set B = rows [1000, 1000 + cap), served
    // through real bags for several promotion epochs.
    std::vector<RowIndex> idx, off;
    makeBag(m, 16, 77, 1000, cap, idx, off);
    std::vector<float> out(16 * m.dim);
    for (int epoch = 0; epoch < 4; ++epoch) {
        for (int rep = 0; rep < 4; ++rep)
            tier.bag(0, idx.data(), off.data(), 16, out.data());
        tier.endEpoch();
    }

    // The tier must now hold (mostly) B, not A.
    std::size_t resident_b = 0;
    for (std::size_t r = 0; r < cap; ++r) {
        if (tier.isResident(
                0, static_cast<RowIndex>((1000 + r) % m.rows)))
            ++resident_b;
    }
    EXPECT_GT(resident_b, cap / 2);
    EXPECT_GT(tier.stats().demotions, 0u);

    // And serve B's stream mostly from the tier, bitwise-identically.
    const auto before = tier.stats();
    std::vector<float> want(16 * m.dim);
    tier.bag(0, idx.data(), off.data(), 16, out.data());
    store->table(0).bag(idx.data(), off.data(), 16, want.data());
    EXPECT_EQ(std::memcmp(out.data(), want.data(),
                          out.size() * sizeof(float)),
              0);
    const auto after = tier.stats();
    const double rate =
        static_cast<double>(after.hits - before.hits) /
        static_cast<double>(after.hits - before.hits + after.misses -
                            before.misses);
    EXPECT_GT(rate, 0.5);
}

TEST(HotTier, AutomaticEpochsFireFromServedLookups)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 5);
    HotTierConfig hc;
    hc.budgetBytes = 8 * 1024;
    hc.minAccesses = 1;
    hc.epochLookups = 200;
    HotTierCache tier(store, hc);

    std::vector<RowIndex> idx, off;
    makeBag(m, 16, 13, 0, 64, idx, off);
    std::vector<float> out(16 * m.dim);
    for (int rep = 0; rep < 8; ++rep)
        tier.bag(0, idx.data(), off.data(), 16, out.data());

    const auto st = tier.stats();
    EXPECT_GE(st.epochs, 2u);
    EXPECT_GT(st.residentRows, 0u);
    EXPECT_GT(st.hits, 0u);
}

TEST(HotTier, FlippedTierBitIsRepairedWithZeroWrongOutputs)
{
    const auto m = tinyModel();
    for (const EmbDtype dt :
         {EmbDtype::Fp32, EmbDtype::Bf16, EmbDtype::Int8}) {
        const auto store = EmbeddingStore::create(m, 3, 64, dt);
        HotTierConfig hc;
        hc.budgetBytes = 32 * 1024;
        hc.blockRows = 8;
        hc.minAccesses = 1;
        hc.verifyTouched = true;
        HotTierCache tier(store, hc);

        std::vector<RowIndex> idx, off;
        makeBag(m, 8, 21, 40, 64, idx, off);
        tier.recordAccess(0, 40, 100); // pin row 40 for certain
        warmFromStream(tier, 0, idx);
        ASSERT_TRUE(tier.isResident(0, 40));

        // Silently corrupt the *pinned copy* of a row the stream
        // keeps hitting; the cold store stays intact.
        ASSERT_TRUE(tier.flipBit(0, 40, 3));
        EXPECT_FALSE(tier.findCorruptBlocks().empty());

        // verify-touched must catch it before a byte is served: the
        // bag output stays bitwise-identical to the cold path.
        std::vector<float> got(8 * m.dim), want(8 * m.dim);
        tier.bag(0, idx.data(), off.data(), 8, got.data());
        store->table(0).bag(idx.data(), off.data(), 8, want.data());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << "dtype " << embDtypeName(dt);

        const auto st = tier.stats();
        EXPECT_GE(st.corruptionsFound, 1u);
        EXPECT_GE(st.blocksQuarantined, 1u);
        EXPECT_GE(st.blocksRepaired, 1u);
        EXPECT_TRUE(tier.findCorruptBlocks().empty());

        // Repaired, not evicted: the row serves from the tier again.
        const auto before = tier.stats();
        tier.bag(0, idx.data(), off.data(), 8, got.data());
        EXPECT_GT(tier.stats().hits, before.hits);

        // A flip on a non-resident row is a no-op...
        EXPECT_FALSE(tier.flipBit(0, static_cast<RowIndex>(2000), 0));
        // ...and out-of-range coordinates throw.
        EXPECT_THROW(tier.flipBit(m.tables, 0, 0),
                     std::invalid_argument);
    }
}

TEST(HotTier, ScrubTickFindsQuarantinesAndRepairs)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 3);
    HotTierConfig hc;
    hc.budgetBytes = 32 * 1024;
    hc.blockRows = 8;
    hc.minAccesses = 1;
    HotTierCache tier(store, hc);

    std::vector<RowIndex> idx, off;
    makeBag(m, 8, 21, 40, 64, idx, off);
    tier.recordAccess(1, 40, 100); // pin row 40 for certain
    warmFromStream(tier, 1, idx);
    ASSERT_TRUE(tier.flipBit(1, 40, 17));

    // One full round-robin sweep must find and repair the block.
    std::size_t scrubbed = 0;
    for (std::size_t i = 0; i < tier.numBlocks(); ++i)
        scrubbed += tier.scrubTick(1);
    EXPECT_EQ(scrubbed, tier.numBlocks());
    const auto st = tier.stats();
    EXPECT_EQ(st.corruptionsFound, 1u);
    EXPECT_EQ(st.blocksRepaired, 1u);
    EXPECT_TRUE(tier.findCorruptBlocks().empty());

    // Post-repair bags serve the intact bytes from the tier.
    std::vector<float> got(8 * m.dim), want(8 * m.dim);
    tier.bag(1, idx.data(), off.data(), 8, got.data());
    store->table(1).bag(idx.data(), off.data(), 8, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0);
}

TEST(HotTier, QuarantinedBlocksFallThroughUntilRepaired)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 3);
    HotTierConfig hc;
    hc.budgetBytes = 32 * 1024;
    hc.blockRows = 8;
    hc.minAccesses = 1;
    HotTierCache tier(store, hc);

    std::vector<RowIndex> idx, off;
    makeBag(m, 8, 21, 40, 64, idx, off);
    warmFromStream(tier, 0, idx);

    for (std::size_t b = 0; b < tier.numBlocks(); ++b)
        tier.quarantineBlock(b);
    EXPECT_TRUE(tier.blockQuarantined(0));

    // Every probe falls through: correct bytes, zero hits.
    const auto before = tier.stats();
    std::vector<float> got(8 * m.dim), want(8 * m.dim);
    tier.bag(0, idx.data(), off.data(), 8, got.data());
    store->table(0).bag(idx.data(), off.data(), 8, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0);
    const auto mid = tier.stats();
    EXPECT_EQ(mid.hits, before.hits);
    EXPECT_GT(mid.misses, before.misses);

    for (std::size_t b = 0; b < tier.numBlocks(); ++b)
        tier.repairBlock(b);
    EXPECT_FALSE(tier.blockQuarantined(0));
    tier.bag(0, idx.data(), off.data(), 8, got.data());
    EXPECT_GT(tier.stats().hits, mid.hits);
}

TEST(HotTier, RetargetServesTheNewVersionsBytes)
{
    const auto m = tinyModel();
    const auto v1 = EmbeddingStore::create(m, 100);
    const auto v2 = EmbeddingStore::create(m, 200); // same shape,
                                                    // different bytes
    HotTierConfig hc;
    hc.budgetBytes = 32 * 1024;
    hc.minAccesses = 1;
    HotTierCache tier(v1, hc);

    std::vector<RowIndex> idx, off;
    makeBag(m, 8, 55, 10, 64, idx, off);
    warmFromStream(tier, 0, idx);
    const std::size_t resident = tier.stats().residentRows;
    ASSERT_GT(resident, 0u);

    ASSERT_TRUE(tier.retarget(v2));
    EXPECT_TRUE(tier.matches(*v2));
    EXPECT_FALSE(tier.matches(*v1));
    // The resident set carried over...
    EXPECT_EQ(tier.stats().residentRows, resident);
    // ...and serves version 2's bytes from the first dispatch.
    std::vector<float> got(8 * m.dim), want(8 * m.dim);
    const auto before = tier.stats();
    tier.bag(0, idx.data(), off.data(), 8, got.data());
    v2->table(0).bag(idx.data(), off.data(), 8, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0);
    EXPECT_GT(tier.stats().hits, before.hits);

    // Geometry / dtype mismatches refuse and leave the tier as-is.
    auto wide = m;
    wide.dim = 64;
    EXPECT_FALSE(tier.retarget(EmbeddingStore::create(wide, 1)));
    EXPECT_FALSE(tier.retarget(
        EmbeddingStore::create(m, 1, 256, EmbDtype::Bf16)));
    EXPECT_TRUE(tier.matches(*v2));
    EXPECT_THROW(tier.retarget(nullptr), std::invalid_argument);
}

TEST(HotTier, ResetDropsResidencyAndCounters)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 3);
    HotTierConfig hc;
    hc.budgetBytes = 32 * 1024;
    hc.minAccesses = 1;
    HotTierCache tier(store, hc);

    std::vector<RowIndex> idx, off;
    makeBag(m, 8, 21, 40, 64, idx, off);
    warmFromStream(tier, 0, idx);
    ASSERT_GT(tier.stats().residentRows, 0u);

    tier.reset();
    const auto st = tier.stats();
    EXPECT_EQ(st.residentRows, 0u);
    EXPECT_EQ(tier.accessCount(0, 40), 0u);
    EXPECT_FALSE(tier.isResident(0, 40));

    // All-miss pass-through, still bitwise-correct.
    std::vector<float> got(8 * m.dim), want(8 * m.dim);
    const auto before = tier.stats();
    tier.bag(0, idx.data(), off.data(), 8, got.data());
    store->table(0).bag(idx.data(), off.data(), 8, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0);
    EXPECT_EQ(tier.stats().hits, before.hits);
}

TEST(HotTier, FullForwardIsBitwiseIdenticalTierOnOff)
{
    const auto m = tinyModel();
    DlrmModel model(m, 77);
    for (const EmbDtype dt :
         {EmbDtype::Fp32, EmbDtype::Bf16, EmbDtype::Int8}) {
        if (dt != EmbDtype::Fp32) {
            model.attachQuantizedStore(
                EmbeddingStore::create(m, 77, 256, dt));
        }
        const auto& store = model.sharedStoreFor(dt);
        HotTierConfig hc;
        hc.budgetBytes = 64 * 1024;
        hc.minAccesses = 1;
        HotTierCache tier(store, hc);

        const std::size_t batch = 6;
        SparseBatch sb;
        sb.batchSize = batch;
        sb.indices.resize(m.tables);
        sb.offsets.resize(m.tables);
        std::vector<RowIndex> idx, off;
        for (std::size_t t = 0; t < m.tables; ++t) {
            makeBag(m, batch, 900 + t, 64, 96, idx, off);
            sb.indices[t] = idx;
            sb.offsets[t] = off;
            warmFromStream(tier, t, idx);
        }
        Tensor dense(batch, m.denseDim());
        dense.randomize(5);

        DlrmWorkspace with_tier, without;
        const auto pf = PrefetchSpec::paperDefault();
        model.forward(dense, sb, with_tier, pf, dt, &tier);
        model.forward(dense, sb, without, pf, dt, nullptr);
        EXPECT_EQ(std::memcmp(with_tier.pred.data(),
                              without.pred.data(),
                              batch * sizeof(float)),
                  0)
            << "dtype " << embDtypeName(dt);
        EXPECT_GT(tier.stats().hits, 0u);

        // A tier built over a *different* store must be ignored by
        // the guard, not probed: predictions still match.
        const auto other = EmbeddingStore::create(m, 123, 256, dt);
        HotTierCache stale(other, hc);
        DlrmWorkspace guarded;
        model.forward(dense, sb, guarded, pf, dt, &stale);
        EXPECT_EQ(std::memcmp(guarded.pred.data(),
                              without.pred.data(),
                              batch * sizeof(float)),
                  0);
        EXPECT_EQ(stale.stats().hits + stale.stats().misses, 0u);
    }
}

/**
 * Concurrency: serving bags race promotion/demotion epochs, the
 * scrubber, bit flips, and a retarget. Run under
 * -DCMAKE_CXX_FLAGS=-fsanitize=thread (the sanitize-threads preset)
 * this is the data-race probe for the shared/exclusive lock protocol;
 * un-sanitized it still asserts the outputs stay bitwise-correct
 * through every interleaving.
 */
TEST(HotTier, ConcurrentBagsEpochsScrubAndRetargetStayCoherent)
{
    const auto m = tinyModel();
    const auto v1 = EmbeddingStore::create(m, 100);
    const auto v2 = EmbeddingStore::create(m, 100); // same bytes:
    // retargeting mid-serve must not change any output, so the race
    // check can assert bitwise equality throughout.
    HotTierConfig hc;
    hc.budgetBytes = 32 * 1024;
    hc.blockRows = 8;
    hc.minAccesses = 1;
    HotTierCache tier(v1, hc);

    std::vector<RowIndex> idx, off;
    makeBag(m, 8, 21, 40, 64, idx, off);
    warmFromStream(tier, 0, idx);
    std::vector<float> want(8 * m.dim);
    v1->table(0).bag(idx.data(), off.data(), 8, want.data());

    std::atomic<bool> stop{false};
    std::atomic<int> wrong{0};

    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
        workers.emplace_back([&, w] {
            std::vector<float> out(8 * m.dim);
            for (int i = 0; i < 300; ++i) {
                tier.bag(0, idx.data(), off.data(), 8, out.data());
                if (std::memcmp(out.data(), want.data(),
                                out.size() * sizeof(float)) != 0)
                    wrong.fetch_add(1);
                tier.recordAccess(0, static_cast<RowIndex>(
                                         (w * 331 + i) % m.rows));
            }
        });
    }
    std::thread churner([&] {
        for (int i = 0; i < 40 && !stop.load(); ++i) {
            tier.scrubTick(2);
            if (i % 10 == 7)
                tier.endEpoch();
            if (i == 20)
                tier.retarget(v2);
            std::this_thread::yield();
        }
    });
    for (auto& t : workers)
        t.join();
    stop.store(true);
    churner.join();

    EXPECT_EQ(wrong.load(), 0);
    // Whatever the interleaving, the tier must end internally
    // consistent: full scrub leaves zero corrupt blocks and a fresh
    // bag is still bitwise-identical.
    for (std::size_t b = 0; b < tier.numBlocks(); ++b)
        tier.scrubTick(1);
    EXPECT_TRUE(tier.findCorruptBlocks().empty());
    std::vector<float> out(8 * m.dim);
    tier.bag(0, idx.data(), off.data(), 8, out.data());
    EXPECT_EQ(std::memcmp(out.data(), want.data(),
                          out.size() * sizeof(float)),
              0);
}

/**
 * Oracle for epoch selection: over a seeded mix of served bags,
 * recordAccess, hot-set drift, quarantines and one reset(), every
 * epoch must pin exactly the top capacityRows() rows by
 * (count desc, table asc, row asc) among rows with at least
 * minAccesses, count its promotions/demotions as the set differences,
 * decay every counter to floor(count * decay), and leave a tier that
 * verifies clean and serves the cold bytes.
 */
TEST(HotTier, EpochSelectionMatchesTheCountOracle)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 41);
    HotTierConfig hc;
    hc.budgetBytes = 96 * strideOf(*store);
    hc.blockRows = 8;
    hc.minAccesses = 2;
    hc.decay = 0.6;
    HotTierCache tier(store, hc);
    const std::size_t cap = tier.capacityRows();
    ASSERT_EQ(cap, 96u);

    using Key = std::pair<std::size_t, std::size_t>; // (table, row)
    std::set<Key> resident;
    std::size_t epochs_over_capacity = 0;
    std::vector<RowIndex> idx, off;
    std::vector<float> got, want;
    for (std::size_t epoch = 0; epoch < 24; ++epoch) {
        const std::uint64_t r = dlrmopt::mix64(1000 + epoch);
        if (epoch == 11) {
            tier.reset();
            resident.clear();
        }
        // Served traffic whose hot window drifts every epoch, and
        // whose width swings the candidate count above and below the
        // capacity.
        const std::size_t hot_rows = 16 + r % 96;
        for (std::size_t t = 0; t < m.tables; ++t) {
            makeBag(m, 8 + (r >> 8) % 12, r + t, (epoch * 173 + t * 61),
                    hot_rows, idx, off);
            const std::size_t samples = off.size() - 1;
            got.resize(samples * m.dim);
            tier.bag(t, idx.data(), off.data(), samples, got.data());
        }
        // Offline warmup feeding, some of it onto never-served rows.
        for (std::size_t i = 0; i < 40; ++i) {
            const std::uint64_t q = dlrmopt::mix64(r + 7 * i);
            tier.recordAccess(q % m.tables,
                              static_cast<RowIndex>((q >> 8) % m.rows),
                              static_cast<std::uint32_t>(1 + (q >> 40) % 4));
        }
        if (epoch % 3 == 1)
            tier.quarantineBlock(r % tier.numBlocks());

        // Oracle inputs: every counter, and the pre-epoch state.
        std::vector<std::uint32_t> count(m.tables * m.rows);
        std::vector<std::tuple<std::uint32_t, std::size_t, std::size_t>>
            cand;
        for (std::size_t t = 0; t < m.tables; ++t) {
            for (std::size_t row = 0; row < m.rows; ++row) {
                const std::uint32_t c =
                    tier.accessCount(t, static_cast<RowIndex>(row));
                count[t * m.rows + row] = c;
                if (c >= hc.minAccesses)
                    cand.emplace_back(c, t, row);
            }
        }
        std::sort(cand.begin(), cand.end(), [](const auto& a,
                                               const auto& b) {
            if (std::get<0>(a) != std::get<0>(b))
                return std::get<0>(a) > std::get<0>(b);
            return std::make_pair(std::get<1>(a), std::get<2>(a)) <
                   std::make_pair(std::get<1>(b), std::get<2>(b));
        });
        if (cand.size() > cap) {
            ++epochs_over_capacity;
            cand.resize(cap);
        }
        std::set<Key> expected;
        for (const auto& c : cand)
            expected.emplace(std::get<1>(c), std::get<2>(c));
        const HotTierStats before = tier.stats();

        tier.endEpoch();

        const HotTierStats after = tier.stats();
        std::size_t entered = 0, left = 0;
        for (const Key& k : expected)
            entered += resident.count(k) == 0;
        for (const Key& k : resident)
            left += expected.count(k) == 0;
        EXPECT_EQ(after.promotions - before.promotions, entered)
            << "epoch " << epoch;
        EXPECT_EQ(after.demotions - before.demotions, left)
            << "epoch " << epoch;
        EXPECT_EQ(after.residentRows, expected.size())
            << "epoch " << epoch;
        for (std::size_t t = 0; t < m.tables; ++t) {
            for (std::size_t row = 0; row < m.rows; ++row) {
                const auto ri = static_cast<RowIndex>(row);
                ASSERT_EQ(tier.isResident(t, ri),
                          expected.count({t, row}) == 1)
                    << "epoch " << epoch << " (" << t << ", " << row
                    << ")";
                ASSERT_EQ(tier.accessCount(t, ri),
                          static_cast<std::uint32_t>(
                              static_cast<double>(
                                  count[t * m.rows + row]) *
                              hc.decay))
                    << "epoch " << epoch << " (" << t << ", " << row
                    << ")";
            }
        }
        resident = expected;

        // Packed, clean, un-quarantined, and serving the cold bytes.
        EXPECT_TRUE(tier.findCorruptBlocks().empty()) << "epoch "
                                                      << epoch;
        for (std::size_t b = 0; b < tier.numBlocks(); ++b)
            EXPECT_FALSE(tier.blockQuarantined(b));
        for (std::size_t t = 0; t < m.tables; ++t) {
            makeBag(m, 6, r + 99 + t, epoch * 173 + t * 61, hot_rows,
                    idx, off);
            got.resize(6 * m.dim);
            want.resize(6 * m.dim);
            tier.bag(t, idx.data(), off.data(), 6, got.data());
            store->table(t).bag(idx.data(), off.data(), 6, want.data());
            ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(float)),
                      0)
                << "epoch " << epoch << " table " << t;
        }
    }
    // The mix must have exercised both the truncating and the
    // fits-in-budget selection.
    EXPECT_GT(epochs_over_capacity, 0u);
    EXPECT_LT(epochs_over_capacity, 24u);
}

/**
 * No laundering: a flipped bit in a resident row that survives an
 * epoch must never end up under a freshly computed sum. If the epoch
 * re-copies the row's block (a neighbour was replaced) the flip is
 * overwritten with cold bytes; if it leaves the block alone it checks
 * the kept sum, which exposes the flip, and repairs the block. Either
 * way, with no scrub and verifyTouched off, the next bag serves the
 * cold bytes, and a later scrub sweep finds nothing left.
 */
TEST(HotTier, EpochNeverLaundersAFlippedSurvivor)
{
    const auto m = tinyModel();
    for (const EmbDtype dt :
         {EmbDtype::Fp32, EmbDtype::Bf16, EmbDtype::Int8}) {
        const auto store = EmbeddingStore::create(m, 13, 64, dt);
        for (const bool dirty_block : {true, false}) {
            SCOPED_TRACE(std::string(embDtypeName(dt)) +
                         (dirty_block ? " dirty block" : " clean block"));
            HotTierConfig hc;
            hc.budgetBytes = 16 * strideOf(*store);
            hc.blockRows = 4;
            hc.minAccesses = 1;
            HotTierCache tier(store, hc);
            ASSERT_EQ(tier.capacityRows(), 16u);

            std::vector<RowIndex> pinned;
            for (std::size_t i = 0; i < 16; ++i) {
                pinned.push_back(static_cast<RowIndex>(7 * i + 1));
                tier.recordAccess(0, pinned.back(), 100);
            }
            tier.endEpoch();
            const RowIndex target = pinned[5];
            const std::size_t b = blockOfRow(tier, 0, target);
            RowIndex neighbour = target;
            for (const RowIndex r : pinned) {
                if (r != target && blockOfRow(tier, 0, r) == b)
                    neighbour = r;
            }
            ASSERT_NE(neighbour, target);
            const RowIndex entrant = 2000;

            ASSERT_TRUE(tier.flipBit(0, target, 14));
            // Next epoch: every resident stays hot; in the dirty case
            // the neighbour cools off and the entrant takes its slot.
            for (const RowIndex r : pinned) {
                if (!(dirty_block && r == neighbour))
                    tier.recordAccess(0, r, 10);
            }
            if (dirty_block)
                tier.recordAccess(0, entrant, 1000);
            tier.endEpoch();
            ASSERT_TRUE(tier.isResident(0, target));
            EXPECT_EQ(tier.isResident(0, neighbour), !dirty_block);
            EXPECT_EQ(tier.isResident(0, entrant), dirty_block);

            std::vector<RowIndex> idx(pinned);
            idx.push_back(entrant);
            const std::vector<RowIndex> off = {
                0, static_cast<RowIndex>(idx.size())};
            std::vector<float> got(m.dim), want(m.dim);
            store->table(0).bag(idx.data(), off.data(), 1, want.data());
            // Re-copied whole (uncounted), or kept, verified, found
            // and repaired by the epoch itself.
            const auto after_epoch = tier.stats();
            EXPECT_EQ(after_epoch.corruptionsFound, dirty_block ? 0u : 1u);
            EXPECT_EQ(after_epoch.blocksRepaired, dirty_block ? 0u : 1u);
            EXPECT_TRUE(tier.findCorruptBlocks().empty());
            EXPECT_FALSE(tier.blockQuarantined(b));
            tier.bag(0, idx.data(), off.data(), 1, got.data());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(float)),
                      0);

            for (std::size_t i = 0; i < tier.numBlocks(); ++i)
                tier.scrubTick(1);
            EXPECT_EQ(tier.stats().corruptionsFound,
                      after_epoch.corruptionsFound);
            EXPECT_TRUE(tier.findCorruptBlocks().empty());
        }
    }
}

/**
 * Detection: every single-bit flip anywhere in a pinned row fails its
 * block's verify, at every dtype. The tiny model's rows are whole
 * 64-bit words (fp32 128 B, bf16 64 B, int8 40 B); dim 13 leaves a
 * byte tail at every dtype (52 / 26 / 21 B).
 */
TEST(HotTier, EverySingleBitFlipFailsVerifyBlock)
{
    for (const std::size_t dim : {std::size_t{32}, std::size_t{13}}) {
        auto m = tinyModel();
        m.dim = dim;
        for (const EmbDtype dt :
             {EmbDtype::Fp32, EmbDtype::Bf16, EmbDtype::Int8}) {
            SCOPED_TRACE(std::string(embDtypeName(dt)) + " dim " +
                         std::to_string(dim));
            const auto store = EmbeddingStore::create(m, 17, 64, dt);
            HotTierConfig hc;
            hc.budgetBytes = 8 * strideOf(*store);
            hc.blockRows = 4;
            hc.minAccesses = 1;
            HotTierCache tier(store, hc);
            for (RowIndex r = 0; r < 8; ++r)
                tier.recordAccess(2, 100 + r, 5);
            tier.endEpoch();

            const RowIndex row = 106;
            const std::size_t b = blockOfRow(tier, 2, row);
            const std::size_t bits =
                store->table(2).storedRowBytes() * 8;
            std::size_t missed = 0;
            for (std::size_t bit = 0; bit < bits; ++bit) {
                ASSERT_TRUE(tier.flipBit(2, row, bit));
                missed += tier.verifyBlock(b);
                ASSERT_TRUE(tier.flipBit(2, row, bit));
            }
            EXPECT_EQ(missed, 0u) << "of " << bits << " bits";
            EXPECT_TRUE(tier.verifyBlock(b));
        }
    }
}

/**
 * Detection of paired flips: two flips at the same bit position of
 * two different words in one block — two fp32 sign bits, say — must
 * not cancel. A fold that only XORs and multiplies keeps a bit-63
 * difference at exactly bit 63, so a second bit-63 flip anywhere
 * later in the block would restore the sum.
 */
TEST(HotTier, PairedSameBitFlipsFailVerifyBlock)
{
    const auto m = tinyModel();
    const auto store = EmbeddingStore::create(m, 19);
    HotTierConfig hc;
    hc.budgetBytes = 8 * strideOf(*store);
    hc.blockRows = 2;
    hc.minAccesses = 1;
    HotTierCache tier(store, hc);
    for (RowIndex r = 0; r < 8; ++r)
        tier.recordAccess(1, 200 + r, 5);
    tier.endEpoch();

    // The two resident rows of one block (fp32 dim 32: 16 words each).
    const std::size_t b = blockOfRow(tier, 1, 200);
    std::vector<RowIndex> rows;
    for (RowIndex r = 200; r < 208; ++r) {
        if (blockOfRow(tier, 1, r) == b)
            rows.push_back(r);
    }
    ASSERT_EQ(rows.size(), 2u);
    const std::size_t row_bits = store->table(1).storedRowBytes() * 8;
    ASSERT_EQ(row_bits % 64, 0u);

    // Bits 63 and 127 of one row: the sign bits of elements 1 and 3.
    ASSERT_TRUE(tier.flipBit(1, rows[0], 63));
    ASSERT_TRUE(tier.flipBit(1, rows[0], 127));
    EXPECT_FALSE(tier.verifyBlock(b));
    ASSERT_TRUE(tier.flipBit(1, rows[0], 63));
    ASSERT_TRUE(tier.flipBit(1, rows[0], 127));
    ASSERT_TRUE(tier.verifyBlock(b));

    // Every pair of words in the block, at every bit position.
    const std::size_t words = 2 * row_bits / 64;
    const auto flip = [&](std::size_t word, std::size_t bit) {
        const std::size_t at = word * 64 + bit;
        return tier.flipBit(1, rows[at / row_bits], at % row_bits);
    };
    std::size_t missed = 0, pairs = 0;
    for (std::size_t bit = 0; bit < 64; ++bit) {
        for (std::size_t i = 0; i < words; ++i) {
            for (std::size_t j = i + 1; j < words; ++j) {
                ASSERT_TRUE(flip(i, bit));
                ASSERT_TRUE(flip(j, bit));
                missed += tier.verifyBlock(b);
                ++pairs;
                ASSERT_TRUE(flip(i, bit));
                ASSERT_TRUE(flip(j, bit));
            }
        }
    }
    EXPECT_EQ(missed, 0u) << "of " << pairs << " pairs";
    EXPECT_TRUE(tier.verifyBlock(b));
}

/**
 * Readers of the tier's cold-store pointer — the zero-budget
 * pass-through bag, the tiered bag, matches() and coldStore() — race
 * retarget() swapping it (the TSan probe for the _cold handoff). Both
 * versions hold the same bytes, so every bag must stay exact.
 */
TEST(HotTier, ColdStoreReadersRaceRetargetSafely)
{
    const auto m = tinyModel();
    const auto v1 = EmbeddingStore::create(m, 100);
    const auto v2 = EmbeddingStore::create(m, 100);
    HotTierConfig hc;
    hc.budgetBytes = 32 * 1024;
    hc.minAccesses = 1;
    HotTierCache tiered(v1, hc);
    HotTierCache passthrough(v1, HotTierConfig{});

    std::vector<RowIndex> idx, off;
    makeBag(m, 8, 21, 40, 64, idx, off);
    warmFromStream(tiered, 0, idx);
    std::vector<float> want(8 * m.dim);
    v1->table(0).bag(idx.data(), off.data(), 8, want.data());

    std::atomic<int> wrong{0};
    std::atomic<int> matched{0};
    std::vector<std::thread> readers;
    for (int w = 0; w < 2; ++w) {
        readers.emplace_back([&] {
            std::vector<float> out(8 * m.dim);
            for (int i = 0; i < 200; ++i) {
                for (HotTierCache *tier : {&tiered, &passthrough}) {
                    tier->bag(0, idx.data(), off.data(), 8, out.data());
                    if (std::memcmp(out.data(), want.data(),
                                    out.size() * sizeof(float)) != 0)
                        wrong.fetch_add(1);
                    const auto cs = tier->coldStore();
                    if (cs != v1 && cs != v2)
                        wrong.fetch_add(1);
                    // Two calls may straddle a swap, so either answer
                    // is fine; the read itself is what TSan checks.
                    matched.fetch_add(tier->matches(*v1) +
                                      tier->matches(*v2));
                }
            }
        });
    }
    std::thread swapper([&] {
        for (int i = 0; i < 60; ++i) {
            const auto& next = i % 2 == 0 ? v2 : v1;
            tiered.retarget(next);
            passthrough.retarget(next);
            std::this_thread::yield();
        }
    });
    for (auto& t : readers)
        t.join();
    swapper.join();
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_GT(matched.load(), 0);
    // The last swap (i = 59) went back to v1.
    EXPECT_TRUE(tiered.matches(*v1));
    EXPECT_TRUE(passthrough.matches(*v1));
}

} // namespace
