#include "policy/lru.h"

#include "util/log.h"

namespace talus {

void
LruPolicy::init(uint32_t num_sets, uint32_t num_ways)
{
    talus_assert(num_ways <= 256, "8-bit LRU ranks cover at most 256 ways");
    ways_ = num_ways;
    ranks_.resize(static_cast<size_t>(num_sets) * num_ways);
    for (size_t line = 0; line < ranks_.size(); ++line)
        ranks_[line] = static_cast<uint8_t>(line % num_ways);
}

void
LruPolicy::onHit(uint32_t line, Addr addr, PartId part)
{
    (void)addr;
    (void)part;
    const uint32_t w = line % ways_;
    touchRow(&ranks_[line - w], ways_, w);
}

void
LruPolicy::onInsert(uint32_t line, Addr addr, PartId part)
{
    (void)addr;
    (void)part;
    const uint32_t w = line % ways_;
    touchRow(&ranks_[line - w], ways_, w);
}

uint32_t
LruPolicy::victim(const uint32_t* cands, uint32_t n)
{
    talus_assert(n > 0, "LRU victim() with no candidates");
    uint32_t best = cands[0];
    for (uint32_t i = 1; i < n; ++i) {
        if (ranks_[cands[i]] < ranks_[best])
            best = cands[i];
    }
    return best;
}

} // namespace talus
