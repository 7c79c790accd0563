#include "workload/mix_stream.h"

#include <algorithm>

#include "util/log.h"

namespace talus {

MixStream::MixStream(std::vector<Component> components, uint64_t seed)
    : components_(std::move(components)), seed_(seed), rng_(seed)
{
    talus_assert(!components_.empty(), "mixture needs components");
    double sum = 0;
    for (const Component& c : components_) {
        talus_assert(c.stream != nullptr, "null component stream");
        talus_assert(c.weight > 0, "component weights must be > 0");
        sum += c.weight;
    }
    cdf_.reserve(components_.size());
    double acc = 0;
    for (const Component& c : components_) {
        acc += c.weight / sum;
        cdf_.push_back(acc);
    }
    cdf_.back() = 1.0; // Guard against rounding.
    cursor_.resize(components_.size());
}

uint32_t
MixStream::choose(double u) const
{
    // The first c with cdf_[c] >= u, as a branch-free count: u < 1.0 =
    // cdf_.back(), so the last component never needs a comparison.
    uint32_t c = 0;
    for (size_t m = 0; m + 1 < cdf_.size(); ++m)
        c += cdf_[m] < u;
    return c;
}

Addr
MixStream::next()
{
    return components_[choose(rng_.unit())].stream->next();
}

void
MixStream::nextBlock(Addr* out, uint64_t n)
{
    // Tile by tile: draw every choice of the tile in stream order, let
    // each component fill its share with one nextBlock call, then
    // interleave the shares back into stream order. Each component
    // still consumes its own sequence in order, and the mixture's RNG
    // is drawn in the same order next() draws it, so the result is
    // exactly n calls to next().
    constexpr uint64_t kTile = 256;
    uint32_t choice[kTile] = {};
    Addr drawn[kTile] = {};
    for (uint64_t off = 0; off < n; off += kTile) {
        const uint64_t len = std::min(kTile, n - off);
        std::fill(cursor_.begin(), cursor_.end(), 0);
        for (uint64_t i = 0; i < len; ++i) {
            choice[i] = choose(rng_.unit());
            cursor_[choice[i]]++;
        }
        // Each component's share goes to its own run of drawn[]; the
        // cursor then walks that run.
        uint32_t at = 0;
        for (size_t c = 0; c < components_.size(); ++c) {
            const uint32_t count = cursor_[c];
            if (count > 0)
                components_[c].stream->nextBlock(drawn + at, count);
            cursor_[c] = at;
            at += count;
        }
        for (uint64_t i = 0; i < len; ++i)
            out[off + i] = drawn[cursor_[choice[i]]++];
    }
}

void
MixStream::reset()
{
    rng_.seed(seed_);
    for (Component& c : components_)
        c.stream->reset();
}

std::unique_ptr<AccessStream>
MixStream::clone() const
{
    std::vector<Component> copies;
    copies.reserve(components_.size());
    for (const Component& c : components_)
        copies.push_back({c.stream->clone(), c.weight});
    return std::make_unique<MixStream>(std::move(copies), seed_);
}

} // namespace talus
