#include "alloc/hill_climb.h"

#include "util/log.h"

namespace talus {

double
allocationCost(const std::vector<MissCurve>& curves,
               const std::vector<uint64_t>& alloc)
{
    talus_assert(curves.size() == alloc.size(), "size mismatch");
    double cost = 0;
    for (size_t i = 0; i < curves.size(); ++i)
        cost += curves[i].at(static_cast<double>(alloc[i]));
    return cost;
}

std::vector<uint64_t>
HillClimbAllocator::allocate(const std::vector<MissCurve>& curves,
                             uint64_t total, uint64_t granularity)
{
    talus_assert(!curves.empty(), "no partitions to allocate");
    talus_assert(granularity >= 1, "granularity must be >= 1");
    // Below 2^53 every allocation and allocation + granularity is an
    // exact double, so a cached upper value at(s + g) is the same
    // double as the next step's lower value at(s').
    talus_assert(total <= (1ull << 53), "total too large for exact sizes");

    const size_t n = curves.size();
    const double g = static_cast<double>(granularity);
    std::vector<uint64_t> alloc(n, 0);
    // gain[i] = at(alloc[i]) - at(alloc[i] + g); upper[i] caches the
    // second term. Granting a granule changes only the winner's
    // allocation, so only its entry is recomputed.
    std::vector<double> gain(n);
    std::vector<double> upper(n);
    for (size_t i = 0; i < n; ++i) {
        upper[i] = curves[i].at(g);
        gain[i] = curves[i].at(0.0) - upper[i];
    }

    uint64_t remaining = total;
    while (remaining >= granularity) {
        // Give the next granule to the partition that benefits most;
        // break ties toward the least-allocated partition (a fair,
        // deterministic rule — and the reason hill climbing splits
        // budget across plateaus instead of luckily piling onto one
        // app's cliff).
        double best_gain = -1.0;
        size_t best = 0;
        for (size_t i = 0; i < n; ++i) {
            if (gain[i] > best_gain ||
                (gain[i] == best_gain && alloc[i] < alloc[best])) {
                best_gain = gain[i];
                best = i;
            }
        }
        alloc[best] += granularity;
        remaining -= granularity;
        const double lower = upper[best];
        upper[best] =
            curves[best].at(static_cast<double>(alloc[best]) + g);
        gain[best] = lower - upper[best];
    }
    return alloc;
}

} // namespace talus
