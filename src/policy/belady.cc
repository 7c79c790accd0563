#include "policy/belady.h"

#include <set>
#include <unordered_map>
#include <utility>

#include "cache/set_assoc_cache.h"
#include "util/log.h"

namespace talus {

std::vector<uint64_t>
nextUseIndices(const std::vector<Addr>& trace)
{
    const uint64_t n = trace.size();
    std::vector<uint64_t> next(n, n);
    std::unordered_map<Addr, uint64_t> last;
    last.reserve(trace.size() / 4 + 16);
    for (uint64_t i = n; i-- > 0;) {
        auto it = last.find(trace[i]);
        next[i] = (it != last.end()) ? it->second : n;
        last[trace[i]] = i;
    }
    return next;
}

namespace {

/**
 * Core MIN simulation over one access sequence with precomputed
 * next-use indices. Resident lines are kept in an ordered set keyed by
 * next use, so the furthest-future line is *rbegin().
 */
uint64_t
minMissesWithNextUse(const std::vector<Addr>& trace,
                     const std::vector<uint64_t>& next,
                     const std::vector<uint64_t>& positions,
                     uint64_t capacity_lines)
{
    if (capacity_lines == 0)
        return positions.size();

    uint64_t misses = 0;
    // (next_use, addr) of resident lines; largest next_use = victim.
    std::set<std::pair<uint64_t, Addr>> resident;
    std::unordered_map<Addr, uint64_t> resident_next;
    resident_next.reserve(capacity_lines * 2);

    for (uint64_t pos : positions) {
        const Addr addr = trace[pos];
        const uint64_t next_use = next[pos];
        auto it = resident_next.find(addr);
        if (it != resident_next.end()) {
            // Hit: the stored key is this access's position.
            resident.erase({it->second, addr});
            resident.insert({next_use, addr});
            it->second = next_use;
        } else {
            misses++;
            if (resident.size() >= capacity_lines) {
                auto victim = std::prev(resident.end());
                resident_next.erase(victim->second);
                resident.erase(victim);
            }
            resident.insert({next_use, addr});
            resident_next.emplace(addr, next_use);
        }
    }
    return misses;
}

std::vector<uint64_t>
allPositions(size_t n)
{
    std::vector<uint64_t> positions(n);
    for (size_t i = 0; i < n; ++i)
        positions[i] = i;
    return positions;
}

} // namespace

uint64_t
minMisses(const std::vector<Addr>& trace, uint64_t capacity_lines)
{
    const auto next = nextUseIndices(trace);
    return minMissesWithNextUse(trace, next, allPositions(trace.size()),
                                capacity_lines);
}

std::vector<uint64_t>
minMissCurve(const std::vector<Addr>& trace,
             const std::vector<uint64_t>& capacities)
{
    const auto next = nextUseIndices(trace);
    const auto positions = allPositions(trace.size());
    std::vector<uint64_t> misses;
    misses.reserve(capacities.size());
    for (uint64_t c : capacities)
        misses.push_back(minMissesWithNextUse(trace, next, positions, c));
    return misses;
}

uint64_t
minMissesSetAssoc(const std::vector<Addr>& trace, uint32_t num_sets,
                  uint32_t num_ways)
{
    talus_assert(num_sets > 0 && num_ways > 0, "bad MIN geometry");
    const auto next = nextUseIndices(trace);

    // Bucket positions by set; per-set MIN is exact for set-assoc
    // caches because sets are independent.
    std::vector<std::vector<uint64_t>> by_set(num_sets);
    for (uint64_t i = 0; i < trace.size(); ++i)
        by_set[SetAssocCache::bitSelectSet(trace[i], num_sets)].push_back(i);

    uint64_t misses = 0;
    for (const auto& positions : by_set)
        misses += minMissesWithNextUse(trace, next, positions, num_ways);
    return misses;
}

} // namespace talus
