#include "util/h3_hash.h"

#include <memory>

#include "util/bits.h"
#include "util/log.h"
#include "util/rng.h"

namespace talus {

H3Hash::H3Hash(uint32_t out_bits, uint64_t seed)
    : outBits_(out_bits)
{
    talus_assert(out_bits >= 1 && out_bits <= 32,
                 "H3Hash out_bits must be in [1, 32], got ", out_bits);
    Rng rng(seed);
    for (auto& mask : masks_) {
        // Draw until non-zero so every output bit depends on the input.
        do {
            mask = rng.next64();
        } while (mask == 0);
    }

    // Byte-slice the masks: parity(addr & m) is the XOR over bytes of
    // parity(byte & m_byte), so each byte's contribution to all output
    // bits can be precomputed. bit_contrib[j] collects the output bits
    // whose mask has input bit (8*b + j) set; each table entry is then
    // filled in one XOR from the entry with its lowest set bit cleared.
    for (uint32_t b = 0; b < 8; ++b) {
        uint32_t bit_contrib[8] = {};
        for (uint32_t i = 0; i < outBits_; ++i) {
            const uint64_t mask_byte = (masks_[i] >> (8 * b)) & 0xFF;
            for (uint32_t j = 0; j < 8; ++j) {
                if ((mask_byte >> j) & 1)
                    bit_contrib[j] |= 1u << i;
            }
        }
        table_[b][0] = 0;
        for (uint32_t j = 0; j < 8; ++j) {
            for (uint32_t v = 0; v < (1u << j); ++v)
                table_[b][(1u << j) | v] =
                    table_[b][v] ^ bit_contrib[j];
        }
    }
}

H3Pair::H3Pair(uint32_t out_bits, uint64_t lo_seed, uint64_t hi_seed)
{
    // The two functions are built on the heap and dropped: at 8 KB
    // each they would deepen the stack of every monitor construction.
    const auto lo = std::make_unique<const H3Hash>(out_bits, lo_seed);
    const auto hi = std::make_unique<const H3Hash>(out_bits, hi_seed);
    for (uint32_t b = 0; b < 8; ++b) {
        for (uint32_t v = 0; v < 256; ++v)
            table_[b][v] = lo->table_[b][v] |
                           static_cast<uint64_t>(hi->table_[b][v]) << 32;
    }
}

uint32_t
H3Hash::hashReference(Addr addr) const
{
    uint32_t out = 0;
    for (uint32_t bit = 0; bit < outBits_; ++bit) {
        out |= (popcount64(addr & masks_[bit]) & 1) << bit;
    }
    return out;
}

} // namespace talus
