/**
 * @file
 * The fused Vantage+LRU kernel (SchemePartitionedCache's serial and
 * batched entry points) against the generic virtual path
 * (SetAssocCache + VantageScheme + LruPolicy, one access() at a time),
 * in lockstep. After every block, the two must agree on the block's
 * hits and on the whole cache state: every line's tag, valid bit and
 * owner, every set's whole LRU rank row (which must be a permutation
 * of 0..ways-1 on both sides), every partition's occupancy, the
 * unmanaged count, the eviction count, and the per-partition access
 * and hit stats. Within-set recency order is the only LRU state a
 * victim choice can observe, and the rank rows are exactly that.
 *
 * The traces cross every path of the kernel: fingerprint collisions,
 * cross-partition hits, promotion, demotion, invalid-way fills,
 * unmanaged-LRU victims and the set-conflict worst-partition scan
 * (including zero-target partitions), under targets changed
 * mid-stream, through block sizes on both sides of the prologue's
 * prefetch distance, at every row width the kernel instantiates:
 * the scalar loops (4 and 12 ways) and 1 to 4 vector chunks (16 to
 * 64 ways). Partition counts reach the owner byte's ceiling of 254
 * (and one past it, where the generic path must serve), and one case
 * mutates the fused side through its generic cache between blocks, so
 * the kernel rebuilds its owner rows and fingerprints mid-stream.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/set_assoc_cache.h"
#include "partition/partitioned_cache.h"
#include "partition/vantage.h"
#include "policy/lru.h"
#include "util/rng.h"

namespace talus {
namespace {

struct Geometry
{
    uint32_t ways;
    uint32_t sets;
    uint32_t parts;
};

/** How the fused side drives one block. */
enum class Entry
{
    Routed,  //!< accessBatchRouted, per-access partitions.
    Uniform, //!< accessBatchUniform, one partition per block.
    Serial,  //!< access() per address (the accessFused1 path).
};

/** Kernel paths the generic oracle saw, classified before each
 *  access; the test requires every one of them per geometry. */
struct Coverage
{
    uint64_t fpCollisions = 0;     //!< Set holds a tag with the same
                                   //!< fingerprint but another address.
    uint64_t promotions = 0;       //!< Hit on an unmanaged line.
    uint64_t fills = 0;            //!< Miss into an invalid way.
    uint64_t unmanagedVictims = 0; //!< Miss evicting unmanaged LRU.
    uint64_t conflicts = 0;        //!< Miss with no unmanaged line.
};

/** Target vectors applied in turn, one per phase. All sum to at most
 *  the capacity; several zero a partition so the set-conflict scan
 *  meets its 1e18 sentinel ratio. */
std::vector<std::vector<uint64_t>>
targetSchedule(uint64_t lines, uint32_t parts)
{
    std::vector<std::vector<uint64_t>> phases;
    // Paper default: equal split of 90% of capacity.
    phases.emplace_back(parts, lines * 9 / 10 / parts);
    // Whole capacity to all but partition 0, which gets nothing.
    {
        std::vector<uint64_t> t(parts, 0);
        for (uint32_t p = 1; p < parts; ++p)
            t[p] = lines / (parts - 1);
        phases.push_back(t);
    }
    // Tiny targets: heavy demotion, a large unmanaged region, and
    // frequent promotions.
    phases.emplace_back(parts, lines / (8 * parts) + 1);
    // Skewed split of the whole capacity; the last partition is zero.
    {
        std::vector<uint64_t> t(parts, 0);
        uint64_t left = lines;
        for (uint32_t p = 0; p + 1 < parts; ++p) {
            t[p] = left / 2;
            left -= t[p];
        }
        phases.push_back(t);
    }
    phases.emplace_back(parts, lines * 9 / 10 / parts);
    return phases;
}

/**
 * Next trace address: a hot set reused often, a cold set that keeps
 * the miss path busy, and hot addresses flipped into distinct tags
 * with the same 32-bit fingerprint. XOR with m | m << 32 preserves
 * low32 ^ high32 for any 32-bit m. With m = sets << 20 the flip only
 * sets bits a hot address (< 2^20) leaves clear, so it adds
 * m * (2^32 + 1), a multiple of the set count: the pair shares its
 * bit-selected set and collides inside it.
 */
Addr
nextAddr(Rng& rng, uint64_t lines, uint32_t sets)
{
    const uint64_t r = rng.below(100);
    const Addr hot = rng.below(lines / 2 + 1);
    const uint64_t m = uint64_t{sets} << 20;
    if (r < 60)
        return hot;
    if (r < 68)
        return hot ^ 0x1'0000'0001ull;
    if (r < 76)
        return hot ^ (m | m << 32);
    return lines + rng.below(4 * lines);
}

class Lockstep
{
  public:
    explicit Lockstep(const Geometry& g)
        : g_(g), fused_(config(g), std::make_unique<LruPolicy>(),
                        std::make_unique<VantageScheme>(g.parts)),
          generic_(config(g), std::make_unique<LruPolicy>(),
                   std::make_unique<VantageScheme>(g.parts))
    {
    }

    bool fusedActive() const { return fused_.fusedKernelActive(); }
    uint64_t lines() const { return uint64_t{g_.ways} * g_.sets; }

    void setTargets(const std::vector<uint64_t>& t)
    {
        fused_.setTargets(t);
        generic_.setTargets(t);
    }

    /** Runs one block through both sides; returns {fused, generic}
     *  hits. */
    std::pair<uint64_t, uint64_t> block(const std::vector<Addr>& addrs,
                                        const std::vector<PartId>& route,
                                        Entry entry)
    {
        const uint64_t n = addrs.size();
        uint64_t fused_hits = 0;
        switch (entry) {
          case Entry::Routed:
            fused_hits =
                fused_.accessBatchRouted(addrs.data(), route.data(), n);
            break;
          case Entry::Uniform:
            fused_hits =
                fused_.accessBatchUniform(addrs.data(), n, route[0]);
            break;
          case Entry::Serial:
            for (uint64_t i = 0; i < n; ++i)
                fused_hits += fused_.access(addrs[i], route[i]);
            break;
        }
        uint64_t generic_hits = 0;
        for (uint64_t i = 0; i < n; ++i) {
            const PartId part =
                entry == Entry::Uniform ? route[0] : route[i];
            classify(addrs[i], part);
            generic_hits += generic_.access(addrs[i], part);
        }
        return {fused_hits, generic_hits};
    }

    /** Asserts the two sides hold identical state. */
    void expectSameState(const char* where)
    {
        SetAssocCache& fc = fused_.cache();
        const auto& flru = static_cast<const LruPolicy&>(fc.policy());
        const auto& glru =
            static_cast<const LruPolicy&>(generic_.policy());
        for (uint32_t l = 0; l < generic_.numLines(); ++l) {
            ASSERT_EQ(fc.lineValid(l), generic_.lineValid(l))
                << where << ": valid of line " << l;
            ASSERT_EQ(fc.lineTag(l), generic_.lineTag(l))
                << where << ": tag of line " << l;
            ASSERT_EQ(fc.linePart(l), generic_.linePart(l))
                << where << ": owner of line " << l;
        }
        for (uint32_t s = 0; s < g_.sets; ++s) {
            std::vector<uint8_t> frow(g_.ways), grow(g_.ways);
            std::vector<bool> seen(g_.ways, false);
            for (uint32_t w = 0; w < g_.ways; ++w) {
                frow[w] = flru.rank(s * g_.ways + w);
                grow[w] = glru.rank(s * g_.ways + w);
                ASSERT_LT(frow[w], g_.ways)
                    << where << ": rank of set " << s << " way " << w;
                ASSERT_FALSE(seen[frow[w]])
                    << where << ": rank row of set " << s
                    << " repeats rank " << int{frow[w]};
                seen[frow[w]] = true;
            }
            ASSERT_EQ(frow, grow) << where << ": rank row of set " << s;
        }
        const auto* fv =
            static_cast<const VantageScheme*>(fc.scheme());
        const auto* gv =
            static_cast<const VantageScheme*>(generic_.scheme());
        for (PartId p = 0; p < g_.parts; ++p) {
            ASSERT_EQ(fv->occupancy(p), gv->occupancy(p))
                << where << ": occupancy of partition " << p;
            ASSERT_EQ(fc.stats().accesses(p), generic_.stats().accesses(p))
                << where << ": accesses of partition " << p;
            ASSERT_EQ(fc.stats().hits(p), generic_.stats().hits(p))
                << where << ": hits of partition " << p;
        }
        ASSERT_EQ(fv->unmanagedLines(), gv->unmanagedLines()) << where;
        ASSERT_EQ(fc.stats().evictions(), generic_.stats().evictions())
            << where;
    }

    /**
     * Mutates both sides behind the fused kernel's back, through the
     * fused side's generic cache(): invalidates a random line, then
     * runs one generic access. The kernel must notice the mutation
     * epoch and rebuild its mirrors before its next access.
     */
    void mutateGeneric(Rng& rng)
    {
        SetAssocCache& fc = fused_.cache();
        const uint32_t line =
            static_cast<uint32_t>(rng.below(generic_.numLines()));
        fc.invalidateLine(line);
        generic_.invalidateLine(line);
        const Addr addr = nextAddr(rng, lines(), g_.sets);
        const PartId part = static_cast<PartId>(rng.below(g_.parts));
        ASSERT_EQ(fc.access(addr, part), generic_.access(addr, part))
            << "generic access to " << addr;
    }

    const Coverage& coverage() const { return cov_; }

  private:
    static SetAssocCache::Config config(const Geometry& g)
    {
        SetAssocCache::Config c;
        c.numWays = g.ways;
        c.numSets = g.sets;
        return c;
    }

    /** Records which kernel path the generic access about to run
     *  takes. */
    void classify(Addr addr, PartId part)
    {
        const uint32_t base = generic_.defaultSetIndex(addr) * g_.ways;
        for (uint32_t w = 0; w < g_.ways; ++w) {
            const Addr t = generic_.lineTag(base + w);
            if (generic_.lineValid(base + w) && t != addr &&
                tagFingerprint(t) == tagFingerprint(addr)) {
                cov_.fpCollisions++;
                break;
            }
        }
        const int64_t line = generic_.probe(addr, part);
        if (line >= 0) {
            cov_.promotions +=
                generic_.linePart(static_cast<uint32_t>(line)) == kNoPart;
            return;
        }
        bool unmanaged = false;
        for (uint32_t w = 0; w < g_.ways; ++w) {
            if (!generic_.lineValid(base + w)) {
                cov_.fills++;
                return;
            }
            unmanaged |= generic_.linePart(base + w) == kNoPart;
        }
        (unmanaged ? cov_.unmanagedVictims : cov_.conflicts)++;
    }

    Geometry g_;
    SchemePartitionedCache fused_;
    SetAssocCache generic_;
    Coverage cov_;
};

/**
 * Runs the trace through both sides. @p fused says whether the fused
 * kernel must be active for @p g; either way the two sides must agree.
 * With @p mutate, Lockstep::mutateGeneric() runs after every block's
 * state check.
 */
void
runLockstep(const Geometry& g, uint64_t seed, bool fused = true,
            bool mutate = false)
{
    SCOPED_TRACE(testing::Message()
                 << "ways " << g.ways << ", sets " << g.sets << ", "
                 << g.parts << " partitions");
    Lockstep ls(g);
    ASSERT_EQ(ls.fusedActive(), fused);

    // Every block size below, at, and just past the prologue's
    // prefetch distance of 8, plus a long block.
    constexpr uint64_t kBlockSizes[] = {1, 7, 8, 9, 4096};
    constexpr Entry kEntries[] = {Entry::Routed, Entry::Uniform,
                                  Entry::Serial};
    constexpr uint64_t kPhaseAccesses = 30'000;
    Rng rng(seed);
    uint64_t blk = 0;
    for (const std::vector<uint64_t>& targets :
         targetSchedule(ls.lines(), g.parts)) {
        ls.setTargets(targets);
        for (uint64_t done = 0; done < kPhaseAccesses; ++blk) {
            const uint64_t n = kBlockSizes[blk % 5];
            const Entry entry = kEntries[(blk / 5) % 3];
            std::vector<Addr> addrs(n);
            std::vector<PartId> route(n);
            for (uint64_t i = 0; i < n; ++i) {
                addrs[i] = nextAddr(rng, ls.lines(), g.sets);
                route[i] = static_cast<PartId>(rng.below(g.parts));
            }
            const auto [fused_hits, generic_hits] =
                ls.block(addrs, route, entry);
            ASSERT_EQ(fused_hits, generic_hits)
                << "hits of block " << blk << " (" << n << " accesses)";
            const std::string where =
                "after block " + std::to_string(blk);
            ls.expectSameState(where.c_str());
            if (testing::Test::HasFatalFailure())
                return;
            if (mutate) {
                ls.mutateGeneric(rng);
                if (testing::Test::HasFatalFailure())
                    return;
            }
            done += n;
        }
    }

    const Coverage& cov = ls.coverage();
    EXPECT_GT(cov.fpCollisions, 0u);
    EXPECT_GT(cov.promotions, 0u);
    EXPECT_GT(cov.fills, 0u);
    EXPECT_GT(cov.unmanagedVictims, 0u);
    EXPECT_GT(cov.conflicts, 0u);
}

TEST(FusedKernelLockstep, FourWaysBitSelectedNonPowerOfTwoSets)
{
    runLockstep({4, 37, 2}, 101);
}

TEST(FusedKernelLockstep, TwelveWaysScalarRows)
{
    // Not a multiple of 16: the scalar row loops, on unaligned rows.
    runLockstep({12, 40, 3}, 137);
    runLockstep({12, 32, 4}, 139);
}

TEST(FusedKernelLockstep, SixteenWaysOneChunk)
{
    // One vector chunk per row.
    runLockstep({16, 64, 4}, 103);
}

TEST(FusedKernelLockstep, SixteenWaysBitSelected)
{
    // The serving geometry: power-of-two sets, bit-selected index.
    runLockstep({16, 128, 8}, 107);
    runLockstep({16, 50, 6}, 131);
}

TEST(FusedKernelLockstep, ThirtyTwoWaysNonPowerOfTwoSets)
{
    // Table I's associativity: two vector chunks per row.
    runLockstep({32, 24, 3}, 109);
    runLockstep({32, 32, 4}, 149);
}

TEST(FusedKernelLockstep, FortyEightWaysThreeChunks)
{
    // Three chunks: a 48-byte rank row that can straddle a line.
    runLockstep({48, 16, 4}, 151);
}

TEST(FusedKernelLockstep, SixtyFourWaysFullMask)
{
    // 64 ways: the way-span mask is all ones.
    runLockstep({64, 12, 5}, 113);
    runLockstep({64, 9, 2}, 127);
}

TEST(FusedKernelLockstep, SixteenWaysFortyPartitions)
{
    // More partitions than ways: most sets hold only a few of them.
    runLockstep({16, 64, 40}, 157);
}

TEST(FusedKernelLockstep, OwnerByteCeiling)
{
    // 254 partitions: the last id, 253, sits just below the owner
    // row's unmanaged and invalid bytes.
    runLockstep({16, 128, 254}, 163);
}

TEST(FusedKernelLockstep, PastOwnerByteCeilingServesGeneric)
{
    // 255 partitions do not fit an owner byte: the generic path serves
    // and must still match the oracle.
    runLockstep({16, 128, 255}, 167, false);
}

TEST(FusedKernelLockstep, RebuildsAfterGenericMutation)
{
    // Invalidations and generic accesses between blocks: each next
    // block starts with a rebuild of the owner rows and fingerprints.
    runLockstep({16, 50, 6}, 173, true, true);
    runLockstep({12, 40, 3}, 179, true, true);
    runLockstep({32, 24, 4}, 181, true, true);
}

} // namespace
} // namespace talus
