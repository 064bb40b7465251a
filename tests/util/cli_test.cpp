#include "pas/util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace pas::util {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ProgramName) {
  const Cli cli = make({});
  EXPECT_EQ(cli.program(), "prog");
}

TEST(Cli, SpaceSeparatedValue) {
  const Cli cli = make({"--nodes", "8"});
  EXPECT_TRUE(cli.has("nodes"));
  EXPECT_EQ(cli.get_int("nodes", 0), 8);
}

TEST(Cli, EqualsValue) {
  const Cli cli = make({"--freq=1200.5"});
  EXPECT_DOUBLE_EQ(cli.get_double("freq", 0.0), 1200.5);
}

TEST(Cli, BooleanFlag) {
  const Cli cli = make({"--verbose", "--other=1"});
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_FALSE(cli.get_bool("absent", false));
  EXPECT_TRUE(cli.get_bool("absent", true));
}

TEST(Cli, ExplicitBooleanValues) {
  EXPECT_TRUE(make({"--x=true"}).get_bool("x", false));
  EXPECT_TRUE(make({"--x=on"}).get_bool("x", false));
  EXPECT_FALSE(make({"--x=false"}).get_bool("x", true));
}

TEST(Cli, Fallbacks) {
  const Cli cli = make({});
  EXPECT_EQ(cli.get("name", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("d", 2.5), 2.5);
}

TEST(Cli, Positional) {
  const Cli cli = make({"kernel", "--n", "4", "extra"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "kernel");
  EXPECT_EQ(cli.positional()[1], "extra");
}

TEST(Cli, IntList) {
  const Cli cli = make({"--nodes", "1,2,4,8,16"});
  const auto list = cli.get_int_list("nodes", {});
  ASSERT_EQ(list.size(), 5u);
  EXPECT_EQ(list[0], 1);
  EXPECT_EQ(list[4], 16);
  const auto fallback = cli.get_int_list("absent", {3});
  ASSERT_EQ(fallback.size(), 1u);
  EXPECT_EQ(fallback[0], 3);
}

// A bad list item names the option and its 1-based position instead of
// reading as 0 (which the sweep would report as a bogus node count).
std::string int_list_error(const char* value) {
  const Cli cli = make({"--nodes", value});
  try {
    cli.get_int_list("nodes", {});
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, IntListRejectsEmptyItems) {
  EXPECT_EQ(int_list_error("1,,4"), "--nodes: item 2 of \"1,,4\" is empty");
  EXPECT_EQ(int_list_error(","), "--nodes: item 1 of \",\" is empty");
  EXPECT_EQ(int_list_error("4,"), "--nodes: item 2 of \"4,\" is empty");
}

TEST(Cli, IntListRejectsNonIntegerItems) {
  EXPECT_EQ(int_list_error("600,x"),
            "--nodes: item 2 of \"600,x\" is not an integer: \"x\"");
  EXPECT_EQ(int_list_error("1.5"),
            "--nodes: item 1 of \"1.5\" is not an integer: \"1.5\"");
  EXPECT_EQ(int_list_error("2,4x"),
            "--nodes: item 2 of \"2,4x\" is not an integer: \"4x\"");
  EXPECT_EQ(int_list_error("99999999999999999999"),
            "--nodes: item 1 of \"99999999999999999999\" is out of range");
  EXPECT_EQ(int_list_error("1,-2"), "");  // signs parse; the sweep rejects -2
}

TEST(Cli, RequireKnownAcceptsListedFlags) {
  const Cli cli = make({"--nodes", "8", "--csv", "out.csv", "--small"});
  EXPECT_NO_THROW(cli.require_known({"nodes", "csv", "small", "jobs"}));
}

TEST(Cli, RequireKnownRejectsUnknownFlag) {
  const Cli cli = make({"--nodes", "8", "--freqz", "600"});
  try {
    cli.require_known({"nodes", "freq"});
    FAIL() << "unknown flag must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    // Names the offender and the accepted set.
    EXPECT_NE(what.find("--freqz"), std::string::npos);
    EXPECT_NE(what.find("--freq"), std::string::npos);
  }
}

TEST(Cli, RequireKnownIgnoresPositionals) {
  const Cli cli = make({"EP", "--small"});
  EXPECT_NO_THROW(cli.require_known({"small"}));
}

}  // namespace
}  // namespace pas::util
