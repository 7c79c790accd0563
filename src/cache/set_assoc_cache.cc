#include "cache/set_assoc_cache.h"

#include "util/log.h"

namespace talus {

// Default scheme set-index: whole-cache bit selection, same as an
// unpartitioned cache. Defined here (not in scheme.h) so the interface
// header stays free of SetAssocCache's definition.
uint32_t
PartitionScheme::setIndex(Addr addr, PartId part) const
{
    (void)part;
    talus_assert(cache_ != nullptr, "scheme used before init()");
    return cache_->defaultSetIndex(addr);
}

SetAssocCache::SetAssocCache(const Config& config,
                             std::unique_ptr<ReplPolicy> policy,
                             std::unique_ptr<PartitionScheme> scheme)
    : numSets_(config.numSets), numWays_(config.numWays),
      policy_(std::move(policy)), scheme_(std::move(scheme))
{
    talus_assert(numSets_ > 0, "cache needs at least one set");
    talus_assert(numWays_ > 0 && numWays_ <= kMaxWays,
                 "associativity must be in [1, ", kMaxWays, "], got ",
                 numWays_);
    talus_assert(policy_ != nullptr, "cache needs a replacement policy");

    const size_t lines = static_cast<size_t>(numSets_) * numWays_;
    tags_.assign(lines, kInvalidTag);
    parts_.assign(lines, kNoPart);

    policy_->init(numSets_, numWays_);
    if (scheme_)
        scheme_->init(this);
}

uint32_t
SetAssocCache::setIndexFor(Addr addr, PartId part) const
{
    if (scheme_)
        return scheme_->setIndex(addr, part);
    return defaultSetIndex(addr);
}

bool
SetAssocCache::access(Addr addr, PartId part)
{
    talus_assert(addr != kInvalidTag,
                 "address aliases the invalid-tag sentinel");
    mutationEpoch_++;
    policy_->onAccess(addr, part);

    const uint32_t set = setIndexFor(addr, part);
    talus_assert(set < numSets_, "scheme produced bad set index ", set);
    const uint32_t base = set * numWays_;

    // Probe for a hit.
    for (uint32_t w = 0; w < numWays_; ++w) {
        const uint32_t line = base + w;
        if (tags_[line] == addr) {
            stats_.record(part, true);
            policy_->onHit(line, addr, part);
            if (scheme_)
                scheme_->onHit(line, parts_[line], part);
            return true;
        }
    }

    // Miss.
    stats_.record(part, false);
    policy_->onMiss(addr, set, part);

    uint32_t victim = kBypassLine;
    if (scheme_) {
        // Schemes handle both invalid ways and valid victims so that
        // placement restrictions (e.g., way masks) are respected.
        victim = scheme_->selectVictim(set, part, *policy_);
    } else {
        // Unpartitioned: prefer an invalid way, else ask the policy.
        uint32_t cands[kMaxWays];
        uint32_t n = 0;
        for (uint32_t w = 0; w < numWays_; ++w) {
            const uint32_t line = base + w;
            if (!lineValid(line)) {
                victim = line;
                break;
            }
            cands[n++] = line;
        }
        if (victim == kBypassLine && n > 0)
            victim = policy_->victim(cands, n);
    }

    if (victim == kBypassLine) {
        stats_.recordBypass();
        return false;
    }

    talus_assert(victim / numWays_ == set,
                 "victim line ", victim, " outside target set ", set);

    if (lineValid(victim)) {
        stats_.recordEviction();
        if (scheme_)
            scheme_->onEvict(victim, parts_[victim]);
    }

    tags_[victim] = addr;
    parts_[victim] = part;
    policy_->onInsert(victim, addr, part);
    if (scheme_)
        scheme_->onInsert(victim, part);
    return false;
}

int64_t
SetAssocCache::probe(Addr addr, PartId part) const
{
    if (addr == kInvalidTag)
        return -1; // Would match every invalid line.
    const uint32_t set = setIndexFor(addr, part);
    const uint32_t base = set * numWays_;
    for (uint32_t w = 0; w < numWays_; ++w) {
        const uint32_t line = base + w;
        if (tags_[line] == addr)
            return line;
    }
    return -1;
}

void
SetAssocCache::invalidateLine(uint32_t line)
{
    talus_assert(line < numLines(), "invalidateLine out of range");
    mutationEpoch_++;
    if (lineValid(line)) {
        stats_.recordEviction();
        if (scheme_)
            scheme_->onEvict(line, parts_[line]);
        tags_[line] = kInvalidTag;
        parts_[line] = kNoPart;
    }
}

void
SetAssocCache::invalidateAll()
{
    mutationEpoch_++;
    for (uint32_t line = 0; line < numLines(); ++line) {
        if (lineValid(line)) {
            if (scheme_)
                scheme_->onEvict(line, parts_[line]);
            tags_[line] = kInvalidTag;
            parts_[line] = kNoPart;
        }
    }
    policy_->init(numSets_, numWays_);
}

uint64_t
SetAssocCache::countLines(PartId part) const
{
    uint64_t count = 0;
    for (uint32_t line = 0; line < numLines(); ++line) {
        if (lineValid(line) && parts_[line] == part)
            count++;
    }
    return count;
}

void
SetAssocCache::setTargets(const std::vector<uint64_t>& lines)
{
    talus_assert(scheme_ != nullptr,
                 "setTargets on an unpartitioned cache");
    scheme_->setTargets(lines);
}

} // namespace talus
