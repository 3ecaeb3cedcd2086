// Property tests for the two pure building blocks the lane-parallel
// frontier kernel rests on:
//   * partition_word_ranges: the ranges tile [0, words) exactly once,
//     are contiguous, non-empty and near-equal, for adversarial
//     (words, lanes) combinations — and word_range, the O(1) form the
//     parallel passes use, reproduces it range for range;
//   * util/simd: the AVX2 kernels and the scalar fallbacks compute
//     bit-identical results on randomized inputs (so SIMD dispatch can
//     never perturb fixed-seed archives).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/frontier_kernel.hpp"
#include "rng/stream.hpp"
#include "util/simd.hpp"

namespace cobra {
namespace {

using core::WordRange;
using core::partition_word_ranges;

TEST(PartitionWordRanges, TilesTheIntervalExactlyOnce) {
  for (const std::size_t words :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{7}, std::size_t{8}, std::size_t{63}, std::size_t{64},
        std::size_t{65}, std::size_t{255}, std::size_t{1000},
        std::size_t{4096}}) {
    for (const int lanes : {1, 2, 3, 4, 7, 8, 13, 64, 255, 256}) {
      const std::vector<WordRange> ranges =
          partition_word_ranges(words, lanes);
      SCOPED_TRACE(::testing::Message()
                   << "words=" << words << " lanes=" << lanes);
      // No more ranges than lanes, none empty, and an empty interval
      // yields no ranges at all.
      ASSERT_LE(ranges.size(),
                static_cast<std::size_t>(lanes));
      if (words == 0) {
        EXPECT_TRUE(ranges.empty());
        continue;
      }
      EXPECT_EQ(ranges.size(),
                std::min(words, static_cast<std::size_t>(lanes)));
      // Contiguous cover: ranges chain begin-to-end from 0 to words.
      std::size_t cursor = 0;
      std::size_t smallest = words, largest = 0;
      for (const WordRange& r : ranges) {
        EXPECT_EQ(r.begin, cursor);
        ASSERT_LT(r.begin, r.end);
        cursor = r.end;
        smallest = std::min(smallest, r.end - r.begin);
        largest = std::max(largest, r.end - r.begin);
      }
      EXPECT_EQ(cursor, words);
      // Near-equal split: sizes differ by at most one word.
      EXPECT_LE(largest - smallest, 1u);
    }
  }
}

TEST(PartitionWordRanges, LongerRangesComeFirst) {
  // 10 words over 4 lanes: 3,3,2,2 — the remainder pads the head, so
  // the lanes claimed first carry the longer ranges and no late claim is
  // left waiting on a longer tail.
  const auto ranges = partition_word_ranges(10, 4);
  ASSERT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges[0].end - ranges[0].begin, 3u);
  EXPECT_EQ(ranges[1].end - ranges[1].begin, 3u);
  EXPECT_EQ(ranges[2].end - ranges[2].begin, 2u);
  EXPECT_EQ(ranges[3].end - ranges[3].begin, 2u);
}

TEST(PartitionWordRanges, WordRangeMatchesTheReference) {
  for (std::size_t words = 0; words <= 300; ++words) {
    for (const int lanes : {0, 1, 2, 3, 4, 7, 8, 13, 64, 255, 256}) {
      SCOPED_TRACE(::testing::Message()
                   << "words=" << words << " lanes=" << lanes);
      const std::vector<WordRange> ranges =
          partition_word_ranges(words, lanes);
      const std::size_t count =
          lanes <= 0 ? 0 : std::min(words, static_cast<std::size_t>(lanes));
      ASSERT_EQ(count, ranges.size());
      for (std::size_t i = 0; i < count; ++i) {
        const WordRange r = core::word_range(words, count, i);
        EXPECT_EQ(r.begin, ranges[i].begin);
        EXPECT_EQ(r.end, ranges[i].end);
      }
    }
  }
}

/// Randomized word blocks with all-ones / all-zeros stretches mixed in,
/// so carries, tails and saturated popcounts are all exercised.
std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t salt) {
  rng::Rng rng = rng::make_stream(0x51D5, salt);
  std::vector<std::uint64_t> words(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pick = rng.next_u64();
    if ((pick & 0xF) == 0)
      words[i] = ~0ull;
    else if ((pick & 0xF) == 1)
      words[i] = 0;
    else
      words[i] = rng.next_u64();
  }
  return words;
}

// Sizes straddling the AVX2 4-word block: empty, sub-block, exact
// blocks, and ragged tails.
constexpr std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 12, 13, 64, 67};

class SimdScalarParity : public ::testing::Test {
 protected:
  void TearDown() override { util::simd::force_scalar(false); }
};

TEST_F(SimdScalarParity, PopcountMatches) {
  for (const std::size_t n : kSizes) {
    const auto words = random_words(n, n);
    util::simd::force_scalar(true);
    const std::uint64_t scalar = util::simd::popcount_words(words.data(), n);
    util::simd::force_scalar(false);
    const std::uint64_t dispatched =
        util::simd::popcount_words(words.data(), n);
    EXPECT_EQ(scalar, dispatched) << "n=" << n;
    // Cross-check against the naive loop, not just path parity.
    std::uint64_t naive = 0;
    for (const std::uint64_t w : words) naive += std::popcount(w);
    EXPECT_EQ(scalar, naive) << "n=" << n;
  }
}

TEST_F(SimdScalarParity, OrWordsMatches) {
  for (const std::size_t n : kSizes) {
    const auto src = random_words(n, 2 * n);
    const auto base = random_words(n, 2 * n + 1);
    auto scalar_dst = base;
    util::simd::force_scalar(true);
    util::simd::or_words(scalar_dst.data(), src.data(), n);
    auto simd_dst = base;
    util::simd::force_scalar(false);
    util::simd::or_words(simd_dst.data(), src.data(), n);
    EXPECT_EQ(scalar_dst, simd_dst) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(scalar_dst[i], base[i] | src[i]) << "n=" << n;
  }
}

TEST_F(SimdScalarParity, MergeVisitedMatches) {
  for (const std::size_t n : kSizes) {
    const auto next = random_words(n, 3 * n);
    const auto base = random_words(n, 3 * n + 1);

    auto scalar_visited = base;
    std::uint64_t scalar_newly = 100, scalar_active = 200;  // accumulates
    util::simd::force_scalar(true);
    util::simd::merge_visited_words(next.data(), scalar_visited.data(), n,
                                    &scalar_newly, &scalar_active);
    auto simd_visited = base;
    std::uint64_t simd_newly = 100, simd_active = 200;
    util::simd::force_scalar(false);
    util::simd::merge_visited_words(next.data(), simd_visited.data(), n,
                                    &simd_newly, &simd_active);

    EXPECT_EQ(scalar_visited, simd_visited) << "n=" << n;
    EXPECT_EQ(scalar_newly, simd_newly) << "n=" << n;
    EXPECT_EQ(scalar_active, simd_active) << "n=" << n;

    std::uint64_t naive_newly = 100, naive_active = 200;
    for (std::size_t i = 0; i < n; ++i) {
      naive_newly += std::popcount(next[i] & ~base[i]);
      naive_active += std::popcount(next[i]);
      EXPECT_EQ(scalar_visited[i], base[i] | next[i]) << "n=" << n;
    }
    EXPECT_EQ(scalar_newly, naive_newly) << "n=" << n;
    EXPECT_EQ(scalar_active, naive_active) << "n=" << n;
  }
}

TEST_F(SimdScalarParity, OrCountNewMatches) {
  for (const std::size_t n : kSizes) {
    const auto next = random_words(n, 4 * n);
    const auto base = random_words(n, 4 * n + 1);

    auto scalar_dst = base;
    util::simd::force_scalar(true);
    const std::uint64_t scalar_added =
        util::simd::or_count_new_words(next.data(), scalar_dst.data(), n);
    auto simd_dst = base;
    util::simd::force_scalar(false);
    const std::uint64_t simd_added =
        util::simd::or_count_new_words(next.data(), simd_dst.data(), n);

    EXPECT_EQ(scalar_dst, simd_dst) << "n=" << n;
    EXPECT_EQ(scalar_added, simd_added) << "n=" << n;

    std::uint64_t naive_added = 0;
    for (std::size_t i = 0; i < n; ++i)
      naive_added += std::popcount(next[i] & ~base[i]);
    EXPECT_EQ(scalar_added, naive_added) << "n=" << n;
  }
}

TEST_F(SimdScalarParity, AvailabilityIsStableAndForceScalarWins) {
  const bool avail = util::simd::avx2_available();
  EXPECT_EQ(avail, util::simd::avx2_available());  // cached, not flapping
  // force_scalar only redirects dispatch; it never changes results
  // (asserted above), so this is just the introspection contract.
  util::simd::force_scalar(true);
  EXPECT_EQ(avail, util::simd::avx2_available());
}

}  // namespace
}  // namespace cobra
