#include "dmf/parse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace dmf {
namespace {

TEST(ParseUnsigned, AcceptsTheDestinationTypesFullRange) {
  EXPECT_EQ(readUnsigned<unsigned>("0", "n"), 0u);
  EXPECT_EQ(readUnsigned<unsigned>("4294967295", "n"), 4294967295u);
  EXPECT_EQ(readUnsigned<std::uint64_t>("18446744073709551615", "n"),
            18446744073709551615ull);
  EXPECT_EQ(readUnsigned<std::uint16_t>("65535", "n"), 65535u);
}

TEST(ParseUnsigned, RejectsValuesPastTheDestinationType) {
  EXPECT_THROW((void)readUnsigned<unsigned>("4294967296", "n"),
               std::invalid_argument);
  EXPECT_THROW((void)readUnsigned<std::uint64_t>("18446744073709551616", "n"),
               std::invalid_argument);
  EXPECT_THROW((void)readUnsigned<std::uint16_t>("65536", "n"),
               std::invalid_argument);
  EXPECT_THROW((void)narrowUnsigned<unsigned>(4294967297ull, "n"),
               std::invalid_argument);
  EXPECT_EQ(narrowUnsigned<unsigned>(4294967295ull, "n"), 4294967295u);
}

TEST(ParseUnsigned, RejectsAnythingButDigits) {
  for (const char* text : {"-1", "+1", " 1", "1 ", "0x10", "1e3", "", "5abc",
                           "1.0"}) {
    EXPECT_THROW((void)readUnsigned<std::uint64_t>(text, "n"),
                 std::invalid_argument)
        << "'" << text << "'";
  }
}

TEST(ParseUnsigned, MessageNamesTheOptionAndTheRange) {
  try {
    (void)readUnsigned<unsigned>("4294967299", "--storage");
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--storage: expected an integer in 0..4294967295, got "
                 "'4294967299'");
  }
}

TEST(ParseFinite, AcceptsDecimalAndExponentForms) {
  EXPECT_DOUBLE_EQ(readFinite("0.25", "x"), 0.25);
  EXPECT_DOUBLE_EQ(readFinite("-1.5", "x"), -1.5);
  EXPECT_DOUBLE_EQ(readFinite("1e3", "x"), 1000.0);
  EXPECT_DOUBLE_EQ(readFinite("8", "x"), 8.0);
}

TEST(ParseFinite, RejectsNonFiniteAndPartialText) {
  for (const char* text : {"nan", "NaN", "inf", "-inf", "infinity", "1e999",
                           "", "0.5x", " 1", "abc"}) {
    EXPECT_THROW((void)readFinite(text, "x"), std::invalid_argument)
        << "'" << text << "'";
  }
}

TEST(ParseList, EmptyTextIsTheEmptyList) {
  EXPECT_TRUE(splitList("", ',', "list").empty());
}

TEST(ParseList, TrimsSpacesAroundItems) {
  EXPECT_EQ(splitList(" a ; b ", ';', "list"),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(splitList("x", ',', "list"), (std::vector<std::string>{"x"}));
  EXPECT_EQ(splitList("1,2,3", ',', "list"),
            (std::vector<std::string>{"1", "2", "3"}));
}

TEST(ParseList, RejectsEmptyItems) {
  EXPECT_THROW((void)splitList("1,,2", ',', "list"), std::invalid_argument);
  EXPECT_THROW((void)splitList("a;", ';', "list"), std::invalid_argument);
  EXPECT_THROW((void)splitList(";a", ';', "list"), std::invalid_argument);
  EXPECT_THROW((void)splitList(" ", ',', "list"), std::invalid_argument);
  try {
    (void)splitList("1,,2", ',', "--weights");
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--weights: empty item in '1,,2'");
  }
}

TEST(ParseField, SplitsAtTheFirstEquals) {
  EXPECT_EQ(splitField("chip=1"), (std::pair<std::string, std::string>{
                                      "chip", "1"}));
  EXPECT_EQ(splitField("a=b=c"), (std::pair<std::string, std::string>{
                                     "a", "b=c"}));
  EXPECT_EQ(splitField("optimize"), (std::pair<std::string, std::string>{
                                        "optimize", ""}));
  EXPECT_EQ(splitField("key="), (std::pair<std::string, std::string>{
                                    "key", ""}));
}

}  // namespace
}  // namespace dmf
