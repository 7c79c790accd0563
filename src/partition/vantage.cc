#include "partition/vantage.h"

#include <numeric>

#include "cache/set_assoc_cache.h"
#include "util/log.h"

namespace talus {

VantageScheme::VantageScheme(uint32_t num_parts)
    : numParts_(num_parts), targets_(num_parts, 0), occ_(num_parts, 0)
{
    talus_assert(num_parts >= 1, "need at least one partition");
}

void
VantageScheme::init(SetAssocCache* cache)
{
    talus_assert(cache->numLines() < kVantageMaxLines,
                 "Vantage caches are limited to ", kVantageMaxLines - 1,
                 " lines, got ", cache->numLines());
    cache_ = cache;
    // Default: equal targets over 90% of capacity (paper default).
    std::vector<uint64_t> equal(
        numParts_, cache->numLines() * 9 / 10 / numParts_);
    setTargets(equal);
}

void
VantageScheme::setTargets(const std::vector<uint64_t>& lines)
{
    talus_assert(lines.size() == numParts_, "expected ", numParts_,
                 " targets, got ", lines.size());
    const uint64_t total = std::accumulate(lines.begin(), lines.end(),
                                           uint64_t{0});
    talus_assert(total <= cache_->numLines(),
                 "targets (", total, " lines) exceed capacity (",
                 cache_->numLines(), ")");
    targets_ = lines;
}

uint64_t
VantageScheme::target(PartId part) const
{
    talus_assert(part < numParts_, "bad partition id ", part);
    return targets_[part];
}

uint64_t
VantageScheme::occupancy(PartId part) const
{
    talus_assert(part < numParts_, "bad partition id ", part);
    return occ_[part];
}

uint32_t
VantageScheme::selectVictim(uint32_t set, PartId part, ReplPolicy& policy)
{
    (void)part;
    const uint32_t ways = cache_->numWays();
    const uint32_t base = set * ways;
    uint32_t unmanaged_cands[SetAssocCache::kMaxWays];
    uint32_t n_unmanaged = 0;
    for (uint32_t w = 0; w < ways; ++w) {
        const uint32_t line = base + w;
        if (!cache_->lineValid(line))
            return line;
        if (cache_->linePart(line) == kNoPart)
            unmanaged_cands[n_unmanaged++] = line;
    }

    // Vantage evicts from the unmanaged region when possible.
    if (n_unmanaged > 0)
        return policy.victim(unmanaged_cands, n_unmanaged);

    return victimOfWorstPart(base, ways, policy);
}

uint32_t
VantageScheme::victimOfWorstPart(uint32_t base, uint32_t ways,
                                 ReplPolicy& policy)
{
    // Otherwise demote-and-evict from the most over-target partition
    // present in this set. Walking ways in order, a partition's first
    // sighting is its first way; later sightings of the same
    // partition tie on the ratio and lose on the way.
    PartId worst = kNoPart;
    uint32_t worst_first = 0;
    for (uint32_t w = 0; w < ways; ++w) {
        const PartId q = cache_->linePart(base + w);
        if (q == kNoPart || q >= numParts_)
            continue;
        if (worst == kNoPart ||
            moreOverTarget(occ_[q], targets_[q], w, occ_[worst],
                           targets_[worst], worst_first)) {
            worst = q;
            worst_first = w;
        }
    }
    talus_assert(worst != kNoPart, "set full of foreign lines");

    uint32_t cands[SetAssocCache::kMaxWays];
    uint32_t n = 0;
    for (uint32_t w = 0; w < ways; ++w) {
        const uint32_t line = base + w;
        if (cache_->linePart(line) == worst)
            cands[n++] = line;
    }
    return policy.victim(cands, n);
}

void
VantageScheme::demoteIfOverTarget(uint32_t inserted_line, PartId part)
{
    if (occ_[part] <= targets_[part] || targets_[part] == 0)
        return;
    // Demote this partition's policy victim within the inserted set
    // (excluding the just-inserted line) into the unmanaged region.
    const uint32_t ways = cache_->numWays();
    const uint32_t base = (inserted_line / ways) * ways;
    uint32_t cands[SetAssocCache::kMaxWays];
    uint32_t n = 0;
    for (uint32_t w = 0; w < ways; ++w) {
        const uint32_t line = base + w;
        if (line != inserted_line && cache_->lineValid(line) &&
            cache_->linePart(line) == part) {
            cands[n++] = line;
        }
    }
    if (n == 0)
        return; // Cannot demote within this set; converges later.
    const uint32_t demoted = cache_->policy().victim(cands, n);
    cache_->setLinePart(demoted, kNoPart);
    occ_[part]--;
    unmanaged_++;
}

void
VantageScheme::onInsert(uint32_t line, PartId part)
{
    talus_assert(part < numParts_, "bad partition id ", part);
    occ_[part]++;
    demoteIfOverTarget(line, part);
}

void
VantageScheme::onEvict(uint32_t line, PartId owner)
{
    (void)line;
    if (owner == kNoPart) {
        if (unmanaged_ > 0)
            unmanaged_--;
    } else if (owner < numParts_ && occ_[owner] > 0) {
        occ_[owner]--;
    }
}

void
VantageScheme::onHit(uint32_t line, PartId owner, PartId part)
{
    // Promotion: an unmanaged line that hits rejoins the accessing
    // partition. Balance the books immediately by demoting the
    // partition's policy victim in the same set if the promotion
    // pushed it over target — otherwise promotion-heavy phases would
    // inflate partitions far beyond their allocations.
    if (owner == kNoPart && part < numParts_) {
        cache_->setLinePart(line, part);
        occ_[part]++;
        if (unmanaged_ > 0)
            unmanaged_--;
        demoteIfOverTarget(line, part);
    }
}

} // namespace talus
