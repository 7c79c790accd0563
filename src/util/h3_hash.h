/**
 * @file
 * H3 universal hashing (Carter & Wegman, STOC'77).
 *
 * H3 is the hash family Talus specifies for its hardware sampling
 * function (Sec. VI-B of the paper): each output bit is the parity of
 * the input ANDed with a random mask. It is cheap in hardware (one XOR
 * tree per output bit) and gives pairwise-independent outputs, which is
 * what Assumption 3 (statistically self-similar sampled streams) needs.
 */

#ifndef TALUS_UTIL_H3_HASH_H
#define TALUS_UTIL_H3_HASH_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/span.h"
#include "util/types.h"

namespace talus {

/**
 * The table-driven H3 evaluation, shared by H3Hash (32-bit entries)
 * and H3Pair (two functions side by side in 64-bit entries).
 * tables[b][v] is the parity contribution of input byte b holding
 * value v. H3 is linear over GF(2), so H(a ^ b) = H(a) ^ H(b), and
 * every tables[b][0] is 0: a zero byte contributes nothing, so a
 * zero byte can be skipped, and H(a) = H(a & 0xFFFFFFFF) ^
 * H(a >> 32 << 32) splits into a low-word and a high-word half.
 */
namespace h3 {

template <typename T>
using Tables = std::array<std::array<T, 256>, 8>;

/** H(a & 0xFFFFFFFF): bytes 0-3, skipping 2-3 when both are zero. */
template <typename T>
inline T
lowWord(const Tables<T>& t, Addr a)
{
    const T low = t[0][a & 0xFF] ^ t[1][(a >> 8) & 0xFF];
    if ((a & 0xFFFF0000u) == 0)
        return low;
    return low ^ t[2][(a >> 16) & 0xFF] ^ t[3][(a >> 24) & 0xFF];
}

/** H(hi << 32) for the high word @p hi of an address. */
template <typename T>
inline T
highWord(const Tables<T>& t, uint64_t hi)
{
    return t[4][hi & 0xFF] ^ t[5][(hi >> 8) & 0xFF] ^
           t[6][(hi >> 16) & 0xFF] ^ t[7][(hi >> 24) & 0xFF];
}

/** H(a), in 2 to 8 loads by which of its 16-bit pieces are zero — the
 *  small addresses of traces take the short paths, behind branches
 *  that predict perfectly on typical streams. */
template <typename T>
inline T
eval(const Tables<T>& t, Addr a)
{
    const T low = lowWord(t, a);
    return (a >> 32) == 0 ? low : low ^ highWord(t, a >> 32);
}

/**
 * Calls fn(i, H(a[i])) for i = 0..n-1, in order. The high word's
 * contribution is memoised across the block and recomputed only when
 * a >> 32 changes, so a block whose addresses share an address-space
 * id (every per-partition block) pays the low word's 2 or 4 loads per
 * address instead of 8.
 */
template <typename T, typename Fn>
inline void
evalBlock(const Tables<T>& t, const Addr* a, size_t n, Fn&& fn)
{
    uint64_t hi = 0;
    T hi_h = 0; // H(0) = 0.
    for (size_t i = 0; i < n; ++i) {
        const uint64_t ahi = a[i] >> 32;
        if (ahi != hi) {
            hi = ahi;
            hi_h = highWord(t, ahi);
        }
        fn(i, lowWord(t, a[i]) ^ hi_h);
    }
}

} // namespace h3

/**
 * An H3 hash function from 64-bit inputs to up to 32 output bits.
 *
 * The function is fully determined by its seed, so reconfigurations
 * and repeated runs are reproducible.
 *
 * Evaluation is table-driven: the input is sliced into 8 bytes and
 * each byte indexes a precomputed 256-entry table of partial parities,
 * so a hash is at most 8 loads and 7 XORs instead of 32
 * mask-and-popcount steps. The tables are built from the same seeded
 * masks as the bit-serial definition, so outputs are bit-exact for a
 * given seed (hashReference() keeps the definitional form for tests).
 */
class H3Hash
{
  public:
    /**
     * Builds an H3 function.
     *
     * @param out_bits Number of output bits (1..32).
     * @param seed Seed for the random bit masks.
     */
    explicit H3Hash(uint32_t out_bits = 8, uint64_t seed = 0x1905'CAFE);

    /**
     * Hashes a line address to out_bits bits. Zero bytes contribute
     * nothing (table_[b][0] is 0), so small addresses take 2 or 4
     * table loads instead of 8 (see h3::eval). Bit-exact with the
     * full evaluation for every input.
     */
    uint32_t hash(Addr addr) const { return h3::eval(table_, addr); }

    /**
     * Hashes a whole block of addresses into @p out (which must hold
     * at least addrs.size() entries). Bit-exact with calling hash()
     * per element; one tight loop over the byte-sliced tables with the
     * high word memoised across the block (h3::evalBlock).
     */
    void hashBlock(Span<const Addr> addrs, uint32_t* out) const
    {
        forEachHash(addrs, [out](size_t i, uint32_t h) { out[i] = h; });
    }

    /** Calls fn(i, hash(addrs[i])) over the block, in order, with the
     *  high word memoised (h3::evalBlock): hashBlock() for a caller
     *  that consumes each hash at once instead of storing it. */
    template <typename Fn>
    void forEachHash(Span<const Addr> addrs, Fn&& fn) const
    {
        h3::evalBlock(table_, addrs.data(), addrs.size(), fn);
    }

    /** Hashes to a real number in [0, 1). */
    double hashUnit(Addr addr) const
    {
        return static_cast<double>(hash(addr)) /
               static_cast<double>(range());
    }

    /**
     * The definitional bit-serial evaluation (one parity per output
     * bit). Bit-exact with hash(); kept as the reference the golden
     * tests pin the tables against.
     */
    uint32_t hashReference(Addr addr) const;

    /** Number of output bits. */
    uint32_t outBits() const { return outBits_; }

    /** Largest hash value + 1 (i.e., 2^outBits). 64-bit so that
     *  outBits == 32 does not overflow. */
    uint64_t range() const { return 1ull << outBits_; }

  private:
    friend class H3Pair;

    uint32_t outBits_;
    std::array<uint64_t, 32> masks_;
    // table_[b][v]: XOR-parity contribution of input byte b holding
    // value v, one bit per output bit. Value-initialized so that the
    // v == 0 entries (never written by the fill loop) are zero.
    h3::Tables<uint32_t> table_{};
};

/**
 * Two H3 functions evaluated by one set of byte lookups: entry
 * [b][v] of the paired table is lo's entry | hi's entry << 32, and
 * XOR works lane-wise, so hash(a) = lo.hash(a) | hi.hash(a) << 32
 * exactly, for the loads of one function. The two functions' own
 * tables are not kept.
 */
class H3Pair
{
  public:
    /** Pairs lo = H3Hash(out_bits, lo_seed) with
     *  hi = H3Hash(out_bits, hi_seed). */
    H3Pair(uint32_t out_bits, uint64_t lo_seed, uint64_t hi_seed);

    /** lo.hash(addr) | uint64_t(hi.hash(addr)) << 32. */
    uint64_t hash(Addr addr) const { return h3::eval(table_, addr); }

    /** Calls fn(i, hash(addrs[i])) over the block, in order, with the
     *  high word memoised (h3::evalBlock). */
    template <typename Fn>
    void forEachHash(Span<const Addr> addrs, Fn&& fn) const
    {
        h3::evalBlock(table_, addrs.data(), addrs.size(), fn);
    }

  private:
    h3::Tables<uint64_t> table_;
};

} // namespace talus

#endif // TALUS_UTIL_H3_HASH_H
