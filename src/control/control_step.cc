#include "control/control_step.h"

#include <algorithm>

#include "core/convex_hull.h"
#include "util/log.h"

namespace talus {

void
runControlStep(const ControlInput& in, Allocator& allocator,
               ControlOutput& out)
{
    talus_assert(in.numParts >= 1, "control step needs >= 1 partition");
    talus_assert(in.curves.size() == in.numParts,
                 "control input has ", in.curves.size(),
                 " curves for ", in.numParts, " partitions");
    talus_assert(in.intervalAccesses.size() == in.numParts,
                 "control input has ", in.intervalAccesses.size(),
                 " interval counters for ", in.numParts, " partitions");
    talus_assert(in.granule >= 1, "granule must be >= 1");

    // One hull per partition, for configure()'s alpha/beta anchors and
    // the allocator. The allocator's curves are weighted by interval
    // access volume so it compares misses, not ratios (+1 keeps a
    // silent partition's curve nonzero). A positive weight keeps a
    // hull's vertices (up to rounding on nearly collinear points), so
    // the weighted hull stands in for the hull of the weighted curve.
    out.curves.clear();
    out.curves.reserve(in.numParts);
    std::vector<MissCurve> alloc_curves;
    alloc_curves.reserve(in.numParts);
    for (uint32_t p = 0; p < in.numParts; ++p) {
        out.curves.push_back(ConvexHull(in.curves[p]).hull());
        const MissCurve& base =
            in.allocateOnHulls ? out.curves[p] : in.curves[p];
        alloc_curves.push_back(base.scaled(
            1.0, static_cast<double>(in.intervalAccesses[p]) + 1.0));
    }

    // The cache may round capacity down to whole sets; never hand the
    // allocator more lines than physically exist.
    const uint64_t cap =
        std::min<uint64_t>(in.llcLines, in.capacityLines);
    const uint64_t usable = in.unmanagedHaircut ? cap * 9 / 10 : cap;

    out.epoch = 0; // The ControlPlane stamps epochs; standalone
                   // steps carry no tag (and reused buffers none
                   // stale).
    out.alloc = allocator.allocate(alloc_curves, usable, in.granule);
}

} // namespace talus
