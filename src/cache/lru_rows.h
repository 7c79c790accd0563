/**
 * @file
 * Row kernels over per-set LRU state, shared by every LRU tag array
 * that keeps the fingerprint-row + rank-row layout: the fused
 * Vantage+LRU kernel (partition/partitioned_cache.h) and the UMON
 * (monitor/umon.h).
 *
 * A set's state is two rows: 32-bit tag fingerprints, and 8-bit LRU
 * ranks (LruPolicy's: a permutation of 0..ways-1, 0 = LRU, ways-1 =
 * MRU; a fresh set is rank == way). A probe compares the narrow
 * fingerprint row first and verifies candidates against the full tag,
 * the way-memoization trick: one cache line of fingerprints covers 16
 * ways where the full tag row needs two. The fused kernel keeps a
 * third row, one owner byte per way, which ByteRow holds in registers
 * while an access edits it.
 */

#ifndef TALUS_CACHE_LRU_ROWS_H
#define TALUS_CACHE_LRU_ROWS_H

#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#define TALUS_ROW_SSE2 1
#endif

#include "policy/lru.h"
#include "util/types.h"

namespace talus {

/**
 * 32-bit fold of a line address, used as a probe fingerprint: a whole
 * 16-way row of fingerprints fits one cache line, so the common probe
 * touches half the lines the full tag row would. Any fold works — a
 * colliding fingerprint only costs a verification load against the
 * canonical tag, never correctness.
 */
inline uint32_t
tagFingerprint(Addr a)
{
    return static_cast<uint32_t>(a) ^ static_cast<uint32_t>(a >> 32);
}

/** The one message both LRU tag arrays assert an access with: the
 *  all-ones address is the invalid-tag sentinel of empty ways. */
inline constexpr const char* kInvalidTagAccessMsg =
    "address aliases the invalid-tag sentinel";

/**
 * The row kernels. Each works on one set's row. @p kChunks is the
 * row's width in 16-way chunks, or 0 for the scalar loops; with it
 * fixed at compile time the 16-way bodies are straight-line. The
 * vector bodies use SSE2 only, the x86-64 baseline, so there is no
 * runtime dispatch; targets without SSE2 run the scalar loops at
 * every width. The vector bodies are bit-exact with the scalar loops:
 * the probe is lane-wise equality, the touch is lane-wise arithmetic,
 * and the argmin reduces keys that are unique within a set. Rows hold
 * at most 64 ways (masks are 64-bit, ranks compare as signed bytes).
 */
namespace lru_rows {

/** Largest row the kernels support. */
inline constexpr uint32_t kMaxWays = 64;

/** Row width in 16-way chunks, or 0 when @p ways is not a multiple
 *  of 16 (scalar loops). */
constexpr uint32_t
chunksFor(uint32_t ways)
{
    return ways % 16 == 0 ? ways / 16 : 0;
}

/** True when a byte row (ranks, owners) can straddle a cache line:
 *  16-, 32- and 64-byte rows tile a line-aligned byte array exactly. */
template <uint32_t kChunks>
constexpr bool kByteRowMaySplit =
    kChunks == 0 || 64 % (16 * kChunks) != 0;

/** Fingerprint-equality mask (bit w = way w) over one row. */
template <uint32_t kChunks>
inline uint64_t
probeRow(const uint32_t* row, uint32_t ways, uint32_t fp)
{
#if TALUS_ROW_SSE2
    if constexpr (kChunks > 0) {
        const __m128i needle = _mm_set1_epi32(static_cast<int>(fp));
        uint64_t m = 0;
        for (uint32_t c = 0; c < kChunks; ++c) {
            const __m128i* p =
                reinterpret_cast<const __m128i*>(row + 16 * c);
            const __m128i e0 =
                _mm_cmpeq_epi32(_mm_loadu_si128(p), needle);
            const __m128i e1 =
                _mm_cmpeq_epi32(_mm_loadu_si128(p + 1), needle);
            const __m128i e2 =
                _mm_cmpeq_epi32(_mm_loadu_si128(p + 2), needle);
            const __m128i e3 =
                _mm_cmpeq_epi32(_mm_loadu_si128(p + 3), needle);
            // All-ones/zero lanes survive signed saturation, so two
            // packing steps leave one 0xFF/0x00 byte per way.
            const __m128i b = _mm_packs_epi16(_mm_packs_epi32(e0, e1),
                                              _mm_packs_epi32(e2, e3));
            m |= static_cast<uint64_t>(
                     static_cast<uint32_t>(_mm_movemask_epi8(b)))
                 << (16 * c);
        }
        return m;
    }
#endif
    uint64_t m = 0;
    for (uint32_t w = 0; w < ways; ++w)
        m |= static_cast<uint64_t>(row[w] == fp) << w;
    return m;
}

/**
 * LruPolicy::touchRow() on way @p w of a rank row. The vector body
 * finds w's lane by its rank (unique in the row) and blends the MRU
 * rank in, so the row is written by one store per chunk and the next
 * touch of the set forwards from it.
 */
template <uint32_t kChunks>
inline void
touchRow(uint8_t* row, uint32_t ways, uint32_t w)
{
#if TALUS_ROW_SSE2
    if constexpr (kChunks > 0) {
        // Ranks are < 64, so signed byte compares order them.
        const uint32_t r = row[w];
        const __m128i rv =
            _mm_set1_epi32(static_cast<int>(r * 0x01010101u));
        const __m128i mru =
            _mm_set1_epi8(static_cast<char>(16 * kChunks - 1));
        for (uint32_t c = 0; c < kChunks; ++c) {
            __m128i* p = reinterpret_cast<__m128i*>(row + 16 * c);
            __m128i v = _mm_loadu_si128(p);
            const __m128i self = _mm_cmpeq_epi8(v, rv);
            v = _mm_add_epi8(v, _mm_cmpgt_epi8(v, rv));
            v = _mm_or_si128(_mm_andnot_si128(self, v),
                             _mm_and_si128(self, mru));
            _mm_storeu_si128(p, v);
        }
        return;
    }
#endif
    LruPolicy::touchRow(row, ways, w);
}

/**
 * The LRU way among the ways selected by @p m (m != 0) in a rank row.
 * Ranks are unique within a set, so this equals LruPolicy::victim
 * over the selected ways in way order. Each way's key is
 * (rank << 8) | way, with the rank of unselected ways forced to 0x7F
 * (above any real rank); one signed 16-bit min-reduction then leaves
 * the winner's way in the low byte.
 */
template <uint32_t kChunks>
inline uint32_t
argminRow(const uint8_t* row, uint32_t ways, uint64_t m)
{
#if TALUS_ROW_SSE2
    if constexpr (kChunks > 0) {
        const __m128i bitsel =
            _mm_setr_epi8(1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16,
                          32, 64, -128);
        const __m128i iota = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10, 11, 12, 13, 14, 15);
        const __m128i unsel = _mm_set1_epi8(0x7F);
        __m128i best = _mm_set1_epi16(0x7FFF);
        for (uint32_t c = 0; c < kChunks; ++c) {
            // Byte lane i of b = byte i / 8 of this chunk's 16 mask
            // bits; lane i is selected iff its bit is set there.
            __m128i b = _mm_cvtsi32_si128(
                static_cast<int>((m >> (16 * c)) & 0xFFFF));
            b = _mm_unpacklo_epi8(b, b);
            b = _mm_unpacklo_epi16(b, b);
            b = _mm_unpacklo_epi32(b, b);
            const __m128i sel =
                _mm_cmpeq_epi8(_mm_and_si128(b, bitsel), bitsel);
            const __m128i rk = _mm_or_si128(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(row + 16 * c)),
                _mm_andnot_si128(sel, unsel));
            const __m128i way = _mm_add_epi8(
                iota, _mm_set1_epi8(static_cast<char>(16 * c)));
            best = _mm_min_epi16(best, _mm_unpacklo_epi8(way, rk));
            best = _mm_min_epi16(best, _mm_unpackhi_epi8(way, rk));
        }
        best = _mm_min_epi16(best, _mm_shuffle_epi32(best, 0x4E));
        best = _mm_min_epi16(best, _mm_shuffle_epi32(best, 0xB1));
        best = _mm_min_epi16(best, _mm_shufflelo_epi16(best, 0xB1));
        return static_cast<uint32_t>(_mm_cvtsi128_si32(best)) & 0xFF;
    }
#endif
    uint32_t best = ~0u;
    for (uint32_t w = 0; w < ways; ++w) {
        const uint32_t excl = static_cast<uint32_t>((m >> w) & 1) - 1;
        const uint32_t key =
            (static_cast<uint32_t>(row[w]) << 8 | w) | excl;
        best = key < best ? key : best;
    }
    return best & 0xFF;
}

/**
 * One set's byte row (one byte per way) held in registers while an
 * access reads and edits it. The constructor loads the row, match()
 * and set() work on the registers, and store() writes the whole row
 * back with one store per chunk, so the next access to the set loads
 * what whole-chunk stores wrote and forwards from them — a byte store
 * followed by a row load would stall instead. The scalar form
 * (kChunks == 0, or no SSE2) reads and writes the row in memory byte
 * by byte, and its store() does nothing.
 */
template <uint32_t kChunks>
class ByteRow
{
  public:
    ByteRow(uint8_t* row, uint32_t ways) : row_(row), ways_(ways)
    {
#if TALUS_ROW_SSE2
        if constexpr (kChunks > 0)
            for (uint32_t c = 0; c < kChunks; ++c)
                v_[c] = _mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(row + 16 * c));
#endif
    }

    /** Byte-equality mask: bit w set iff byte w == @p v. */
    uint64_t match(uint8_t v) const
    {
#if TALUS_ROW_SSE2
        if constexpr (kChunks > 0)
            return matchVec(_mm_set1_epi8(static_cast<char>(v)));
#endif
        uint64_t m = 0;
        for (uint32_t w = 0; w < ways_; ++w)
            m |= static_cast<uint64_t>(row_[w] == v) << w;
        return m;
    }

    /**
     * Calls f(v, match(v)) for v = 0, 1, ..., n - 1 in order. The
     * vector form steps its needle by one lane-wise add per value
     * instead of broadcasting each v afresh, so a branch on a mask
     * resolves a broadcast's latency sooner.
     */
    template <typename F>
    void forEachMatch(uint32_t n, F&& f) const
    {
#if TALUS_ROW_SSE2
        if constexpr (kChunks > 0) {
            const __m128i one = _mm_set1_epi8(1);
            __m128i needle = _mm_setzero_si128();
            for (uint32_t v = 0; v < n; ++v) {
                f(v, matchVec(needle));
                needle = _mm_add_epi8(needle, one);
            }
            return;
        }
#endif
        for (uint32_t v = 0; v < n; ++v)
            f(v, match(static_cast<uint8_t>(v)));
    }

    /** Sets byte @p w to @p v. */
    void set(uint32_t w, uint8_t v)
    {
#if TALUS_ROW_SSE2
        if constexpr (kChunks > 0) {
            // kLaneSel + 64 - w holds 0xFF at lane w and zeros around
            // it, so chunk c's selector is a load 16 * c further on.
            const __m128i val = _mm_set1_epi8(static_cast<char>(v));
            for (uint32_t c = 0; c < kChunks; ++c) {
                const __m128i sel =
                    _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                        kLaneSel + 64 - w + 16 * c));
                v_[c] = _mm_xor_si128(
                    v_[c],
                    _mm_and_si128(_mm_xor_si128(v_[c], val), sel));
            }
            return;
        }
#endif
        row_[w] = v;
    }

    /** Writes the row back (a no-op for the scalar form). */
    void store() const
    {
#if TALUS_ROW_SSE2
        if constexpr (kChunks > 0)
            for (uint32_t c = 0; c < kChunks; ++c)
                _mm_storeu_si128(reinterpret_cast<__m128i*>(row_ + 16 * c),
                                 v_[c]);
#endif
    }

  private:
#if TALUS_ROW_SSE2
    /** match() against a needle already in every lane. */
    uint64_t matchVec(__m128i needle) const
    {
        uint64_t m = 0;
        for (uint32_t c = 0; c < kChunks; ++c)
            m |= static_cast<uint64_t>(static_cast<uint32_t>(
                     _mm_movemask_epi8(_mm_cmpeq_epi8(v_[c], needle))))
                 << (16 * c);
        return m;
    }
#endif

    /** 0xFF at index 64, zeros elsewhere: set()'s lane selectors. */
    alignas(64) static constexpr uint8_t kLaneSel[128] = {
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0xFF};

    uint8_t* row_;
    uint32_t ways_;
#if TALUS_ROW_SSE2
    __m128i v_[kChunks > 0 ? kChunks : 1];
#endif
};

/** The mask of all @p ways ways of a row. */
inline uint64_t
waySpan(uint32_t ways)
{
    return ways == 64 ? ~0ull : (1ull << ways) - 1;
}

} // namespace lru_rows

} // namespace talus

#endif // TALUS_CACHE_LRU_ROWS_H
