#include "partition/partitioned_cache.h"

#include <typeinfo>

#include "partition/futility_scaling.h"
#include "partition/ideal_partition.h"
#include "partition/set_partition.h"
#include "partition/unpartitioned.h"
#include "partition/vantage.h"
#include "partition/way_partition.h"
#include "policy/lru.h"
#include "policy/policy_factory.h"
#include "util/log.h"

namespace talus {

SchemePartitionedCache::SchemePartitionedCache(
    const SetAssocCache::Config& config, std::unique_ptr<ReplPolicy> policy,
    std::unique_ptr<PartitionScheme> scheme)
    : cache_(config, std::move(policy), std::move(scheme))
{
    talus_assert(cache_.scheme() != nullptr,
                 "SchemePartitionedCache requires a scheme");
    // The fused kernel replicates the exact per-access semantics
    // of VantageScheme over plain LRU, so it is only safe when the
    // scheme is VantageScheme (which keeps the default whole-cache set
    // index) and the policy is exactly LruPolicy — a derived policy
    // could override hooks the kernel bypasses.
    // The kernel's way scans build 64-bit match masks, so it also
    // requires associativity <= 64 (every real configuration), and its
    // owner bytes hold partition ids 0..253, so at most 254
    // partitions. Beyond either, the generic path serves.
    VantageScheme* vantage = dynamic_cast<VantageScheme*>(cache_.scheme());
    if (vantage != nullptr && cache_.numWays() <= lru_rows::kMaxWays &&
        vantage->numPartitions() <= kMaxFusedParts &&
        typeid(cache_.policy()) == typeid(LruPolicy)) {
        fusedVantage_ = vantage;
        fusedLru_ = static_cast<LruPolicy*>(&cache_.policy());
    }
}

bool
SchemePartitionedCache::access(Addr addr, PartId part)
{
    // Route through the fused kernel when active so the serial path
    // shares its cost profile and the owner rows stay in sync without
    // a rebuild.
    if (fusedLru_ != nullptr)
        return accessFused1(addr, part);
    return cache_.access(addr, part);
}

uint64_t
SchemePartitionedCache::accessBatchRouted(const Addr* addrs,
                                          const PartId* parts, uint64_t n)
{
    if (fusedLru_ != nullptr)
        return fusedBlock(addrs, parts, n, 0);
    return PartitionedCacheBase::accessBatchRouted(addrs, parts, n);
}

uint64_t
SchemePartitionedCache::accessBatchUniform(const Addr* addrs, uint64_t n,
                                           PartId part)
{
    if (fusedLru_ != nullptr)
        return fusedBlock(addrs, nullptr, n, part);
    return PartitionedCacheBase::accessBatchUniform(addrs, n, part);
}

void
SchemePartitionedCache::rebuildMirrors()
{
    const uint32_t ways = cache_.numWays();
    const uint32_t sets = cache_.numSets();
    const uint32_t nparts = fusedVantage_->numPartitions();
    const SetAssocCache::LineArrays la = cache_.lineArrays();
    const size_t lines = static_cast<size_t>(sets) * ways;
    fpTags_.resize(lines);
    owners_.resize(lines);
    for (size_t l = 0; l < lines; ++l) {
        fpTags_[l] = tagFingerprint(la.tags[l]);
        const PartId p = la.parts[l];
        owners_[l] = !cache_.lineValid(static_cast<uint32_t>(l))
                         ? kOwnInvalid
                     : p == kNoPart ? kOwnUnmanaged
                                    : static_cast<uint8_t>(p);
    }

    CacheStats& st = cache_.stats();
    st.ensureParts(nparts);
    const VantageScheme::Books bk = fusedVantage_->books();
    ctx_.tags = la.tags;
    ctx_.lparts = la.parts;
    ctx_.ranks = fusedLru_->ranksRaw();
    ctx_.occ = bk.occ;
    ctx_.targets = bk.targets;
    ctx_.unmanaged = bk.unmanaged;
    ctx_.own = owners_.data();
    ctx_.fpt = fpTags_.data();
    ctx_.accRaw = st.accessesRaw();
    ctx_.hitRaw = st.hitsRaw();
    ctx_.ways = ways;
    ctx_.chunks = lru_rows::chunksFor(ways);
    ctx_.sets = sets;
    ctx_.setMask = sets - 1;
    ctx_.nparts = nparts;
    ctx_.setsPow2 = (sets & (sets - 1)) == 0;
    mirrorEpoch_ = cache_.mutationEpoch();
}

uint64_t
SchemePartitionedCache::fusedBlock(const Addr* addrs, const PartId* route,
                                   uint64_t n, PartId upart)
{
    if (mirrorEpoch_ != cache_.mutationEpoch())
        rebuildMirrors();
    switch (ctx_.chunks) {
      case 1:
        return fusedBlockOf<1>(addrs, route, n, upart);
      case 2:
        return fusedBlockOf<2>(addrs, route, n, upart);
      case 3:
        return fusedBlockOf<3>(addrs, route, n, upart);
      case 4:
        return fusedBlockOf<4>(addrs, route, n, upart);
      default:
        return fusedBlockOf<0>(addrs, route, n, upart);
    }
}

template <uint32_t kChunks>
uint64_t
SchemePartitionedCache::fusedBlockOf(const Addr* addrs,
                                     const PartId* route, uint64_t n,
                                     PartId upart)
{
    const FusedCtx c = ctx_;
    const uint32_t ways = kChunks > 0 ? 16 * kChunks : c.ways;

    // Precompute all set indices in one tight pass; the loop then
    // prefetches the fingerprint, rank and owner rows kPf accesses
    // ahead while earlier accesses resolve. The last kPf slots repeat
    // the last set, so the lookahead needs no bounds test.
    constexpr uint64_t kPf = 8;
    if (n == 0)
        return 0;
    if (setScratch_.size() < n + kPf)
        setScratch_.resize(n + kPf);
    uint32_t* setv = setScratch_.data();
    for (uint64_t i = 0; i < n; ++i)
        setv[i] = fusedSetOf(c, addrs[i]);
    for (uint64_t i = n; i < n + kPf; ++i)
        setv[i] = setv[n - 1];

    uint64_t hits = 0;
    for (uint64_t i = 0; i < n; ++i) {
        const size_t pb = static_cast<size_t>(setv[i + kPf]) * ways;
        if constexpr (kChunks > 0) {
            for (uint32_t k = 0; k < kChunks; ++k)
                __builtin_prefetch(&c.fpt[pb + 16 * k], 0);
        } else {
            __builtin_prefetch(&c.fpt[pb], 0);
            __builtin_prefetch(&c.fpt[pb + ways - 1], 0);
        }
        __builtin_prefetch(&c.ranks[pb], 1);
        __builtin_prefetch(&c.own[pb], 1);
        if constexpr (lru_rows::kByteRowMaySplit<kChunks>) {
            __builtin_prefetch(&c.ranks[pb + ways - 1], 1);
            __builtin_prefetch(&c.own[pb + ways - 1], 1);
        }
        hits += accessFused1At<kChunks>(
            c, addrs[i], route != nullptr ? route[i] : upart, setv[i]);
    }
    return hits;
}

void
SchemePartitionedCache::setTargets(const std::vector<uint64_t>& lines)
{
    cache_.setTargets(lines);
    // Re-targeting moves no line, so the owner rows, the fingerprints
    // and the rest of ctx_ stay valid; only the target vector may have
    // been reseated by the assignment inside VantageScheme.
    if (fusedVantage_ != nullptr)
        ctx_.targets = fusedVantage_->books().targets;
}

uint32_t
SchemePartitionedCache::numPartitions() const
{
    return cache_.scheme()->numPartitions();
}

uint64_t
SchemePartitionedCache::capacityLines() const
{
    return cache_.numLines();
}

uint64_t
SchemePartitionedCache::occupancy(PartId part) const
{
    return cache_.scheme()->occupancy(part);
}

uint64_t
SchemePartitionedCache::targetOf(PartId part) const
{
    return cache_.scheme()->target(part);
}

const char*
SchemePartitionedCache::schemeName() const
{
    return cache_.scheme()->name();
}

SchemeKind
parseSchemeKind(const std::string& name)
{
    if (name == "Unpartitioned")
        return SchemeKind::Unpartitioned;
    if (name == "Way")
        return SchemeKind::Way;
    if (name == "Set")
        return SchemeKind::Set;
    if (name == "Vantage")
        return SchemeKind::Vantage;
    if (name == "Futility")
        return SchemeKind::Futility;
    if (name == "Ideal")
        return SchemeKind::Ideal;
    talus_fatal("unknown partitioning scheme: ", name);
}

double
schemeUsableFraction(SchemeKind kind)
{
    return kind == SchemeKind::Vantage ? 0.9 : 1.0;
}

std::unique_ptr<PartitionedCacheBase>
makePartitionedCache(SchemeKind kind, uint64_t capacity_lines,
                     uint32_t num_ways, const std::string& policy_name,
                     uint32_t num_parts, uint64_t seed)
{
    if (kind == SchemeKind::Ideal) {
        talus_assert(policy_name == "LRU",
                     "idealized partitioning models exact LRU only");
        return std::make_unique<IdealPartitionedCache>(capacity_lines,
                                                       num_parts);
    }

    talus_assert(num_ways > 0 && capacity_lines >= num_ways,
                 "capacity must be at least one set");
    SetAssocCache::Config config;
    config.numWays = num_ways;
    config.numSets = static_cast<uint32_t>(capacity_lines / num_ways);

    std::unique_ptr<PartitionScheme> scheme;
    switch (kind) {
      case SchemeKind::Unpartitioned:
        scheme = std::make_unique<UnpartitionedScheme>(num_parts);
        break;
      case SchemeKind::Way:
        scheme = std::make_unique<WayPartition>(num_parts);
        break;
      case SchemeKind::Set:
        scheme = std::make_unique<SetPartition>(num_parts, seed ^ 0xA11);
        break;
      case SchemeKind::Vantage:
        scheme = std::make_unique<VantageScheme>(num_parts);
        break;
      case SchemeKind::Futility:
        scheme = std::make_unique<FutilityScheme>(num_parts);
        break;
      case SchemeKind::Ideal:
        break; // Handled above.
    }
    return std::make_unique<SchemePartitionedCache>(
        config, makePolicy(policy_name, seed), std::move(scheme));
}

} // namespace talus
