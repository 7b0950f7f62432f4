// Wide-fanout counter tree over a fixed-size array of 0/1 marks.
//
// The LRU stack-distance tracker (Bennett–Kruskal algorithm) marks one slot
// per access and needs, per event, the count of marked slots at or before a
// position (a rank query) plus two point updates (clear the old mark, set
// the new one). A binary Fenwick tree answers that in O(log n) but walks
// ~log2(n) nodes scattered across an 8-byte-per-slot array — at a million
// slots that is ~20 cache lines touched per traversal, and the traversals
// dominate joint-replay time.
//
// This structure instead stores the marks as a flat bitmap and stacks
// 64-ary counter levels on top:
//
//   words   u64 bitmap, one bit per slot                (8 B / 64 slots)
//   c1      u8 per word: popcount of that word          (1 B / 64 slots)
//   upper0  u32 per 64 words (4096 slots)               and so on, /64 each
//   upper1  u32 per 64^2 words ...                      until <= 64 counters
//
// rank(i) = popcount of the masked leaf word, plus a prefix sum of at most
// 63 sibling counters per level — every address computable from i alone (no
// pointer chasing), at most one potentially-cold cache line per level, and
// 3-4 levels total for a million slots. The c1 level is one byte per
// counter, so a node's 64 siblings are exactly one 64-byte cache line and
// the partial sum is four masked psadbw reductions on SSE2 (baseline on
// x86-64), branch-free. Updates touch exactly the lines the fused query
// just walked. A 4M-slot tree is ~576 KB (bitmap + c1) instead of the
// Fenwick's 32 MB, so it stays cache-resident under the page table's
// traffic.
//
// All counts are exact: this is a drop-in replacement for the Fenwick tree
// in the 0/1-marks special case, and the tracker's outputs stay
// byte-identical (see tests/util/counter_tree_test.cc for the randomized
// differential against the Fenwick reference).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "jpm/util/check.h"
#include "jpm/util/prefetch.h"

namespace jpm {

namespace counter_tree_detail {

// Portable single-word popcount: one instruction where the ISA is enabled
// at build time, a short branchless SWAR sequence otherwise (the default
// x86-64 baseline would turn __builtin_popcountll into a libgcc call).
inline std::uint64_t popcount64(std::uint64_t x) {
#if defined(__POPCNT__)
  return static_cast<std::uint64_t>(__builtin_popcountll(x));
#else
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return (x * 0x0101010101010101ull) >> 56;
#endif
}

// Index of the lowest set bit; x must be non-zero. BSF is in the x86-64
// baseline, so this is one instruction even without -march flags.
inline int trailing_zeros(std::uint64_t x) {
  JPM_DCHECK(x != 0);
  return __builtin_ctzll(x);
}

#if defined(__SSE2__)
// Sliding prefix mask for a whole 64-entry counter block: a 64-byte window
// starting at offset 64-n holds exactly n 0xff bytes followed by zeros, so
// the four 16-byte chunk masks of a prefix are four consecutive unaligned
// loads from one table — no per-chunk length arithmetic at all.
alignas(16) inline constexpr unsigned char kBlockPrefixMask[128] = {
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //
    0,    0,    0,    0,    0,    0,    0,    0,     //
    0,    0,    0,    0,    0,    0,    0,    0,     //
    0,    0,    0,    0,    0,    0,    0,    0,     //
    0,    0,    0,    0,    0,    0,    0,    0,     //
    0,    0,    0,    0,    0,    0,    0,    0,     //
    0,    0,    0,    0,    0,    0,    0,    0,     //
    0,    0,    0,    0,    0,    0,    0,    0,     //
    0,    0,    0,    0,    0,    0,    0,    0,     //
};
#endif

// Sum of block[0..n) for n <= 63 plus the per-byte counts packed in
// `extra` (any u64 whose 8 bytes each hold a small count — the SWAR
// byte-popcount of a leaf word feeds in here so its final horizontal sum
// rides the same psadbw reduction instead of paying its own multiply).
// `block` is the 64-byte-aligned start of a full 64-entry counter block
// (the tail past n is allocated and readable). On SSE2 this is four
// hand-unrolled masked psadbw reductions with masks taken from one sliding
// table — branch-free and loop-free regardless of n.
inline std::uint64_t sum_block_prefix_with(std::uint64_t extra,
                                           const unsigned char* block,
                                           std::size_t n) {
#if defined(__SSE2__)
  const __m128i zero = _mm_setzero_si128();
  const unsigned char* mask = kBlockPrefixMask + (64 - n);
  const auto chunk = [&](std::size_t lo) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + lo));
    const __m128i m =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(mask + lo));
    return _mm_sad_epu8(_mm_and_si128(v, m), zero);
  };
  __m128i acc =
      _mm_sad_epu8(_mm_cvtsi64_si128(static_cast<long long>(extra)), zero);
  acc = _mm_add_epi64(acc, _mm_add_epi64(chunk(0), chunk(16)));
  acc = _mm_add_epi64(acc, _mm_add_epi64(chunk(32), chunk(48)));
  acc = _mm_add_epi64(acc, _mm_srli_si128(acc, 8));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(acc));
#else
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    s0 += block[j];
    s1 += block[j + 1];
    s2 += block[j + 2];
    s3 += block[j + 3];
  }
  for (; j < n; ++j) s0 += block[j];
  return (s0 + s1) + (s2 + s3) + ((extra * 0x0101010101010101ull) >> 56);
#endif
}

inline std::uint64_t sum_block_prefix(const unsigned char* block,
                                      std::size_t n) {
  return sum_block_prefix_with(0, block, n);
}

// Per-byte popcounts of x, packed one count per byte (the first three SWAR
// steps, without the final horizontal multiply — sum_block_prefix_with
// folds these bytes via psadbw).
inline std::uint64_t byte_popcounts(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  return (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
}

// Sum of p[0..n) for n <= 64. Four independent accumulators keep the adds
// off one serial dependency chain; gcc vectorizes this shape at -O2.
template <typename T>
inline std::uint64_t sum_prefix(const T* p, std::size_t n) {
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    s0 += p[j];
    s1 += p[j + 1];
    s2 += p[j + 2];
    s3 += p[j + 3];
  }
  for (; j < n; ++j) s0 += p[j];
  return (s0 + s1) + (s2 + s3);
}

#if defined(__SSE2__)
// u32 overload for the tree's upper levels: paddd over 4-lane chunks, then
// one zero-extend to 64-bit lanes for the horizontal fold. Exact as long as
// each lane's running sum stays below 2^32 — counters at one level count
// disjoint subtrees, so any subset sums to at most the tree's total marks,
// and CounterTree::reset_ones_prefix bounds size (hence total) below 2^32.
inline std::uint64_t sum_prefix(const std::uint32_t* p, std::size_t n) {
  __m128i acc = _mm_setzero_si128();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    acc = _mm_add_epi32(
        acc, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + j)));
  }
  std::uint64_t tail = 0;
  for (; j < n; ++j) tail += p[j];
  const __m128i zero = _mm_setzero_si128();
  __m128i wide = _mm_add_epi64(_mm_unpacklo_epi32(acc, zero),
                               _mm_unpackhi_epi32(acc, zero));
  wide = _mm_add_epi64(wide, _mm_srli_si128(wide, 8));
  return tail + static_cast<std::uint64_t>(_mm_cvtsi128_si64(wide));
}
#endif

}  // namespace counter_tree_detail

class CounterTree {
 public:
  CounterTree() = default;
  explicit CounterTree(std::size_t size) { reset(size); }

  std::size_t size() const { return size_; }
  // Number of marked slots.
  std::uint64_t total() const { return total_; }

  // Clears to `size` positions, all unmarked.
  void reset(std::size_t size) { reset_ones_prefix(size, 0); }

  // Resets to `size` positions with positions [0, ones) marked and the rest
  // clear — the state after `ones` consecutive set() calls, built in O(size).
  void reset_ones_prefix(std::size_t size, std::size_t ones) {
    JPM_DCHECK(ones <= size);
    // Upper-level counters are u32 (and the SSE2 prefix sum accumulates in
    // u32 lanes), so the tree tops out below 2^32 slots — 512 MiB of leaf
    // words alone, far past any tracker sizing.
    JPM_DCHECK(static_cast<std::uint64_t>(size) <= 0xffffffffull);
    size_ = size;
    total_ = ones;
    const std::size_t words = (size + 63) / 64;
    words_.assign(words, 0);
    // c1 lives in u64 storage so a 64-counter block is one cache line:
    // blocks of 64 bytes, rounded up, plus slack to 64-byte-align the base.
    // assign() zeroes the tail padding, which no query ever sums (the mask
    // covers only in-range counters) but SSE2 chunk loads may touch.
    const std::size_t blocks = (words + 63) / 64;
    c1_store_.assign(blocks * 8 + 8, 0);
    c1_off_ = static_cast<std::size_t>(
        (64 - reinterpret_cast<std::uintptr_t>(c1_store_.data()) % 64) % 64);
    unsigned char* c1 = c1_base();
    const std::size_t full_words = ones / 64;
    for (std::size_t w = 0; w < full_words; ++w) {
      words_[w] = ~std::uint64_t{0};
      c1[w] = 64;
    }
    if (const std::size_t rem = ones % 64; rem != 0) {
      words_[full_words] = (std::uint64_t{1} << rem) - 1;
      c1[full_words] = static_cast<unsigned char>(rem);
    }
    // Counter levels above c1, fanout 64, until one node covers everything.
    // Level k's counter j covers `span` slots starting at j*span. Existing
    // level storage is reused across resets (compactions).
    std::size_t levels = 0;
    std::size_t count = words;
    std::uint64_t span = 64 * 64;
    while (count > 64) {
      count = (count + 63) / 64;
      if (levels == upper_.size()) upper_.emplace_back();
      auto& level = upper_[levels];
      level.assign(count, 0);
      for (std::size_t j = 0; j < count; ++j) {
        const std::uint64_t lo = j * span;
        const std::uint64_t covered =
            ones > lo ? (ones - lo < span ? ones - lo : span) : 0;
        level[j] = static_cast<std::uint32_t>(covered);
      }
      span *= 64;
      ++levels;
    }
    upper_.resize(levels);
  }

  // Hints the lines rank/set/clear at position i will touch: the leaf word
  // and its c1 block (exactly one line each). Upper levels are a few
  // hundred bytes and stay cached. Advisory; out-of-range positions are
  // ignored, so callers may pass predicted future positions.
  void prefetch(std::size_t i) const {
    const std::size_t w = i >> 6;
    if (w >= words_.size()) return;
    util::prefetch_read(&words_[w]);
    util::prefetch_read(c1_base() + (w & ~std::size_t{63}));
  }

  // Marks position i (must be clear).
  JPM_FORCE_INLINE void set(std::size_t i) {
    JPM_DCHECK(i < size_ && !test(i));
    const std::size_t w = i >> 6;
    words_[w] |= std::uint64_t{1} << (i & 63);
    ++c1_base()[w];
    std::size_t idx = w >> 6;
    for (auto& level : upper_) {
      ++level[idx];
      idx >>= 6;
    }
    ++total_;
  }

  // Count of marked positions in [0, i], then unmark i (must be marked) —
  // the tracker's fused per-event operation. The prefix sums at each level
  // read strictly-lower siblings, so the decrements never feed them.
  JPM_FORCE_INLINE std::uint64_t rank_and_clear(std::size_t i) {
    JPM_DCHECK(i < size_ && test(i));
    using counter_tree_detail::byte_popcounts;
    using counter_tree_detail::sum_block_prefix_with;
    using counter_tree_detail::sum_prefix;
    const std::size_t w = i >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    const std::uint64_t masked = words_[w] & (bit | (bit - 1));
    words_[w] &= ~bit;
    // Sum before update: the prefix covers strictly-lower siblings only, so
    // w's own counter never feeds it — and summing first keeps the wide
    // chunk loads from landing on a just-stored byte of the same line (a
    // narrow-store/wide-load forward the CPU resolves with a stall).
    unsigned char* c1 = c1_base();
    std::uint64_t r = sum_block_prefix_with(
        byte_popcounts(masked), c1 + (w & ~std::size_t{63}), w & 63);
    --c1[w];
    std::size_t idx = w >> 6;
    for (auto& level : upper_) {
      r += sum_prefix(level.data() + (idx & ~std::size_t{63}), idx & 63);
      --level[idx];
      idx >>= 6;
    }
    --total_;
    return r;
  }

  // Fused rank_and_clear(from) + set(to) for to > from — the tracker's
  // re-access operation (the new slot is always the append end, past every
  // marked slot). One walk updates both positions at every level, halving
  // the loop and call overhead of the sequential pair; with `to` strictly
  // above `from`, the increment can never land among the strictly-lower
  // siblings the rank sums, so the result matches the sequential pair
  // exactly. total() is unchanged (one mark moved).
  JPM_FORCE_INLINE std::uint64_t rank_move(std::size_t from, std::size_t to) {
    JPM_DCHECK(from < to && to < size_ && test(from) && !test(to));
    using counter_tree_detail::byte_popcounts;
    using counter_tree_detail::sum_block_prefix_with;
    using counter_tree_detail::sum_prefix;
    const std::size_t fw = from >> 6;
    const std::size_t tw = to >> 6;
    const std::uint64_t fbit = std::uint64_t{1} << (from & 63);
    const std::uint64_t masked = words_[fw] & (fbit | (fbit - 1));
    words_[fw] &= ~fbit;
    words_[tw] |= std::uint64_t{1} << (to & 63);
    // Sum before updates: the prefix covers strictly-lower siblings of
    // `from` only, and `to` sits at or above `from` at every level, so
    // neither counter change feeds the sum — and summing first keeps the
    // wide chunk loads from landing on a just-stored byte of the same line
    // (a narrow-store/wide-load forward the CPU resolves with a stall).
    unsigned char* c1 = c1_base();
    std::uint64_t r = sum_block_prefix_with(
        byte_popcounts(masked), c1 + (fw & ~std::size_t{63}), fw & 63);
    --c1[fw];
    ++c1[tw];
    std::size_t fi = fw >> 6;
    std::size_t ti = tw >> 6;
    for (auto& level : upper_) {
      r += sum_prefix(level.data() + (fi & ~std::size_t{63}), fi & 63);
      --level[fi];
      ++level[ti];
      fi >>= 6;
      ti >>= 6;
    }
    return r;
  }

  // Count of marked positions in [0, i] (inclusive), without mutation.
  std::uint64_t prefix_ones(std::size_t i) const {
    JPM_DCHECK(i < size_);
    using counter_tree_detail::byte_popcounts;
    using counter_tree_detail::sum_block_prefix_with;
    using counter_tree_detail::sum_prefix;
    const std::size_t w = i >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    std::uint64_t r = sum_block_prefix_with(
        byte_popcounts(words_[w] & (bit | (bit - 1))),
        c1_base() + (w & ~std::size_t{63}), w & 63);
    std::size_t idx = w >> 6;
    for (const auto& level : upper_) {
      r += sum_prefix(level.data() + (idx & ~std::size_t{63}), idx & 63);
      idx >>= 6;
    }
    return r;
  }

  bool test(std::size_t i) const {
    JPM_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  // Visits every marked position in ascending order. Streams the leaf
  // bitmap only — one word per 64 positions — so callers that need the
  // marked set (compaction) pay O(size/64 + marks) instead of scanning a
  // side array of every position.
  template <typename F>
  void for_each_set(F&& f) const {
    const std::size_t nwords = (size_ + 63) >> 6;
    for (std::size_t w = 0; w < nwords; ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const std::size_t b =
            static_cast<std::size_t>(counter_tree_detail::trailing_zeros(bits));
        bits &= bits - 1;
        f((w << 6) | b);
      }
    }
  }

 private:
  // 64-byte-aligned start of the c1 byte lane inside c1_store_. Recomputed
  // from the offset on every use (not cached as a pointer) so copies and
  // reallocations can never leave a dangling base.
  unsigned char* c1_base() {
    return reinterpret_cast<unsigned char*>(c1_store_.data()) + c1_off_;
  }
  const unsigned char* c1_base() const {
    return reinterpret_cast<const unsigned char*>(c1_store_.data()) + c1_off_;
  }

  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> c1_store_;  // u8 counters, 64 B per 64 words
  std::size_t c1_off_ = 0;  // bytes from data() to the aligned base
  // Upper counter levels, bottom-up; each entry covers 64x the level below.
  // At most 4 levels for 2^32 slots, usually 0-2; kept in plain vectors
  // (the outer vector is cold — only the per-level arrays are hot).
  std::vector<std::vector<std::uint32_t>> upper_;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace jpm
