#include <gtest/gtest.h>

#include "common/strings.h"

namespace taqos {
namespace {

TEST(Strings, Format)
{
    EXPECT_EQ(strFormat("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strFormat("%.2f", 1.234), "1.23");
    EXPECT_EQ(strFormat("empty"), "empty");
}

TEST(Strings, FormatLongString)
{
    const std::string big(500, 'a');
    EXPECT_EQ(strFormat("%s!", big.c_str()).size(), 501u);
}

TEST(Strings, Split)
{
    const auto parts = strSplit("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitNoSeparator)
{
    const auto parts = strSplit("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(strTrim("  hi \t\n"), "hi");
    EXPECT_EQ(strTrim(""), "");
    EXPECT_EQ(strTrim("   "), "");
    EXPECT_EQ(strTrim("x"), "x");
}

TEST(Strings, Lower)
{
    EXPECT_EQ(strLower("MeCS"), "mecs");
}

TEST(OptionMap, ParsesKeyValuesAndFlags)
{
    const char *argv[] = {"prog", "rate=0.12", "fast", "name = dps ",
                          "n=42"};
    OptionMap opts(5, const_cast<char **>(argv));
    EXPECT_TRUE(opts.has("fast"));
    EXPECT_TRUE(opts.getBool("fast", false));
    EXPECT_DOUBLE_EQ(opts.getDouble("rate", 0.0), 0.12);
    EXPECT_EQ(opts.get("name", ""), "dps");
    EXPECT_EQ(opts.getInt("n", 0), 42);
}

TEST(OptionMap, Defaults)
{
    OptionMap opts;
    EXPECT_FALSE(opts.has("missing"));
    EXPECT_EQ(opts.getInt("missing", 5), 5);
    EXPECT_EQ(opts.get("missing", "d"), "d");
    EXPECT_TRUE(opts.getBool("missing", true));
}

TEST(Strings, ParseIntegerReadsTheWholeValue)
{
    EXPECT_EQ(parseInteger("42"), 42);
    EXPECT_EQ(parseInteger("-7"), -7);
    EXPECT_EQ(parseInteger("0x1F"), 31); // hex seeds keep working
    EXPECT_FALSE(parseInteger("").has_value());
    EXPECT_FALSE(parseInteger("abc").has_value());
    EXPECT_FALSE(parseInteger("12abc").has_value());
    EXPECT_FALSE(parseInteger("1.5").has_value());
}

TEST(Strings, ParseNumberReadsTheWholeValue)
{
    EXPECT_EQ(parseNumber("0.25"), 0.25);
    EXPECT_EQ(parseNumber("1e-3"), 1e-3);
    EXPECT_FALSE(parseNumber("").has_value());
    EXPECT_FALSE(parseNumber("abc").has_value());
    EXPECT_FALSE(parseNumber("0.5x").has_value());
}

TEST(OptionMapDeathTest, MalformedNumbersExitWithOneLine)
{
    const char *argv[] = {"prog", "seed=abc", "rate=0.1x", "n="};
    OptionMap opts(4, const_cast<char **>(argv));
    EXPECT_EXIT(opts.getInt("seed", 0), ::testing::ExitedWithCode(1),
                "^bad seed 'abc': want an integer\n$");
    EXPECT_EXIT(opts.getDouble("rate", 0.0), ::testing::ExitedWithCode(1),
                "^bad rate '0.1x': want a number\n$");
    EXPECT_EXIT(opts.getInt("n", 0), ::testing::ExitedWithCode(1),
                "^bad n '': want an integer\n$");
}

TEST(OptionMap, BoolSpellings)
{
    const char *argv[] = {"prog", "a=true", "b=ON", "c=0", "d=no"};
    OptionMap opts(5, const_cast<char **>(argv));
    EXPECT_TRUE(opts.getBool("a", false));
    EXPECT_TRUE(opts.getBool("b", false));
    EXPECT_FALSE(opts.getBool("c", true));
    EXPECT_FALSE(opts.getBool("d", true));
}

} // namespace
} // namespace taqos
