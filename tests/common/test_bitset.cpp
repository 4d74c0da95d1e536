#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/bitset.h"

namespace taqos {
namespace {

std::vector<std::size_t>
members(const Bitset &b)
{
    std::vector<std::size_t> out;
    b.forEach([&](std::size_t i) { out.push_back(i); });
    return out;
}

class BitsetSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitsetSizes, SetClearAndAscendingIterationAcrossWords)
{
    const std::size_t n = GetParam();
    Bitset b;
    b.resize(n);
    EXPECT_FALSE(b.any());
    EXPECT_TRUE(members(b).empty());

    // Set out of order, on both sides of every word boundary that exists.
    std::vector<std::size_t> want;
    for (std::size_t i : {n - 1, std::size_t{0}, std::size_t{63},
                          std::size_t{64}, std::size_t{65}, n / 2}) {
        if (i < n)
            want.push_back(i);
    }
    for (std::size_t i : want)
        b.set(i);
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    EXPECT_TRUE(b.any());
    EXPECT_EQ(members(b), want);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(b.test(i), std::binary_search(want.begin(), want.end(), i))
            << i;
    }

    // Clearing the highest member leaves the rest in order.
    if (want.size() > 1) {
        b.reset(want.back());
        EXPECT_FALSE(b.test(want.back()));
        want.pop_back();
        EXPECT_EQ(members(b), want);
    }

    // drain empties the set in ascending order; an index the visitor
    // re-adds stays a member and is not visited twice.
    std::vector<std::size_t> drained;
    b.drain([&](std::size_t i) {
        drained.push_back(i);
        if (i == want.front())
            b.set(i);
    });
    EXPECT_EQ(drained, want);
    EXPECT_EQ(members(b), std::vector<std::size_t>{want.front()});

    // fill covers exactly [0, n): no bit past the end of the last word.
    b.fill();
    const std::vector<std::size_t> all = members(b);
    ASSERT_EQ(all.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(all[i], i);
    b.clear();
    EXPECT_FALSE(b.any());
}

INSTANTIATE_TEST_SUITE_P(OneAndSeveralWords, BitsetSizes,
                         ::testing::Values(1, 64, 65, 128));

} // namespace
} // namespace taqos
