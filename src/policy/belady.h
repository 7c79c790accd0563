/**
 * @file
 * Belady's MIN — optimal offline replacement (Belady, 1966).
 *
 * MIN evicts the line whose next use is furthest in the future. It
 * needs the full trace, so it is exposed as standalone simulation
 * functions rather than a ReplPolicy. The paper proves that optimal
 * replacement is convex (Corollary 7); tests and the
 * ablation_min_convexity bench verify our simulated MIN against that
 * claim, and MIN lower-bounds every online policy in tests.
 */

#ifndef TALUS_POLICY_BELADY_H
#define TALUS_POLICY_BELADY_H

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace talus {

/**
 * Computes, for each trace position, the index of the next access to
 * the same address (trace.size() if none).
 */
std::vector<uint64_t> nextUseIndices(const std::vector<Addr>& trace);

/**
 * Misses of a fully-associative MIN cache of @p capacity_lines lines
 * over @p trace. Zero capacity misses every access.
 */
uint64_t minMisses(const std::vector<Addr>& trace, uint64_t capacity_lines);

/**
 * MIN miss counts at several capacities (each simulated exactly).
 */
std::vector<uint64_t> minMissCurve(const std::vector<Addr>& trace,
                                   const std::vector<uint64_t>& capacities);

/**
 * Misses of a set-associative MIN cache: per-set optimal replacement,
 * with SetAssocCache's default (bit-selected) set index.
 */
uint64_t minMissesSetAssoc(const std::vector<Addr>& trace, uint32_t num_sets,
                           uint32_t num_ways);

} // namespace talus

#endif // TALUS_POLICY_BELADY_H
