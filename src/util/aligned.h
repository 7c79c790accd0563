/**
 * @file
 * Cache-line-aligned vector storage for hot per-set arrays.
 *
 * The fused kernel walks per-set rows (16 ways x 8 bytes = 128 bytes
 * of tags, 64 bytes of fingerprints, 16 bytes of LRU ranks). malloc
 * only guarantees 16-byte alignment, so a 128-byte row generally
 * straddles *three* cache lines instead of two — one avoidable line
 * fill on every tag verify. Allocating the backing stores at 64-byte
 * alignment makes each row start on a line boundary, so a 128-byte
 * row touches exactly two lines, a 64-byte row exactly one, and a
 * 16-byte rank row never splits. Pure layout: contents and iteration
 * order are untouched, so the change is bit-exact by construction.
 */

#ifndef TALUS_UTIL_ALIGNED_H
#define TALUS_UTIL_ALIGNED_H

#include <cstddef>
#include <new>
#include <vector>

namespace talus {

/** Minimal C++17 allocator with a fixed over-alignment. */
template <typename T, std::size_t Align = 64>
struct AlignedAllocator
{
    static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                  "alignment must be a power of two >= alignof(T)");
    using value_type = T;

    AlignedAllocator() noexcept = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept
    {
    }

    T* allocate(std::size_t n)
    {
        return static_cast<T*>(::operator new(
            n * sizeof(T), std::align_val_t(Align)));
    }

    void deallocate(T* p, std::size_t n) noexcept
    {
        ::operator delete(p, n * sizeof(T), std::align_val_t(Align));
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    template <typename U>
    bool operator==(const AlignedAllocator<U, Align>&) const noexcept
    {
        return true;
    }
    template <typename U>
    bool operator!=(const AlignedAllocator<U, Align>&) const noexcept
    {
        return false;
    }
};

/** A std::vector whose backing store starts on a cache line. */
template <typename T>
using CacheAlignedVec = std::vector<T, AlignedAllocator<T, 64>>;

} // namespace talus

#endif // TALUS_UTIL_ALIGNED_H
