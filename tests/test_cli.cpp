// Tests for the shared CLI flag parser, including the hardened edges:
// duplicate-flag rejection, explicit-empty (`--flag=`) semantics vs bare
// boolean flags, range-checked narrow integers, and unused-flag (typo)
// reporting.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/cli.hpp"

namespace gm = geochoice::sim;

namespace {

gm::ArgParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return gm::ArgParser(static_cast<int>(argv.size()), argv.data());
}

}  // namespace

TEST(ArgParser, EqualsForm) {
  const auto p = parse({"--trials=500", "--alpha=1.5", "--name=ring"});
  EXPECT_EQ(p.get_u64("trials", 0), 500u);
  EXPECT_DOUBLE_EQ(p.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(p.get_string("name", ""), "ring");
}

TEST(ArgParser, SpaceForm) {
  const auto p = parse({"--trials", "42"});
  EXPECT_EQ(p.get_u64("trials", 0), 42u);
}

TEST(ArgParser, BooleanFlag) {
  const auto p = parse({"--full"});
  EXPECT_TRUE(p.has("full"));
  EXPECT_FALSE(p.has("other"));
}

TEST(ArgParser, DefaultsWhenAbsent) {
  const auto p = parse({});
  EXPECT_EQ(p.get_u64("trials", 7), 7u);
  EXPECT_DOUBLE_EQ(p.get_double("x", 2.5), 2.5);
  EXPECT_EQ(p.get_string("s", "dflt"), "dflt");
}

TEST(ArgParser, AcceptsDoubleDashPrefixInQueries) {
  const auto p = parse({"--n=9"});
  EXPECT_EQ(p.get_u64("--n", 0), 9u);
}

TEST(ArgParser, U64List) {
  const auto p = parse({"--n=256,4096,65536"});
  const auto v = p.get_u64_list("n", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 256u);
  EXPECT_EQ(v[2], 65536u);
}

TEST(ArgParser, BadValuesThrow) {
  const auto p = parse({"--trials=abc", "--x=1.2.3", "--list=1,junk"});
  EXPECT_THROW((void)p.get_u64("trials", 0), std::invalid_argument);
  EXPECT_THROW((void)p.get_double("x", 0.0), std::invalid_argument);
  EXPECT_THROW((void)p.get_u64_list("list", {}), std::invalid_argument);
}

// get_int<T> reads a flag into a narrow integer and throws for a value
// past T's maximum; get_u64 plus a static_cast would wrap it instead.
TEST(ArgParser, IntGetterRejectsValuesThatDoNotFit) {
  const auto p =
      parse({"--d=4294967298", "--w=4294967296", "--top=4294967295",
             "--imax=2147483647", "--ipast=2147483648", "--neg=-1",
             "--bad=x"});
  EXPECT_THROW((void)p.get_int("d", 2), std::invalid_argument);
  EXPECT_THROW((void)p.get_int<std::uint32_t>("w", 1), std::invalid_argument);
  EXPECT_EQ(p.get_int<std::uint32_t>("top", 1), 4294967295u);
  EXPECT_EQ(p.get_int("imax", 0), 2147483647);
  EXPECT_THROW((void)p.get_int("ipast", 0), std::invalid_argument);
  EXPECT_THROW((void)p.get_int("neg", 0), std::invalid_argument);
  EXPECT_THROW((void)p.get_int("bad", 0), std::invalid_argument);
  EXPECT_EQ(p.get_int("absent", -3), -3);
  EXPECT_TRUE(p.unused().empty());
}

TEST(ArgParser, PositionalArgumentsRejected) {
  const std::vector<const char*> argv = {"prog", "oops"};
  EXPECT_THROW(
      gm::ArgParser(static_cast<int>(argv.size()), argv.data()),
      std::invalid_argument);
}

TEST(ArgParser, UnusedFlagsReported) {
  const auto p = parse({"--used=1", "--typo=2"});
  (void)p.get_u64("used", 0);
  const auto unused = p.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

// ----------------------------------------------------- hardened edges

TEST(ArgParser, DuplicateFlagThrows) {
  EXPECT_THROW(parse({"--n=256", "--n=4096"}), std::invalid_argument);
}

TEST(ArgParser, DuplicateAcrossFormsThrows) {
  // Same flag through equals, space, and bare forms — all collide.
  EXPECT_THROW(parse({"--n=1", "--n", "2"}), std::invalid_argument);
  EXPECT_THROW(parse({"--full", "--full"}), std::invalid_argument);
  EXPECT_THROW(parse({"--n", "1", "--n=2"}), std::invalid_argument);
}

TEST(ArgParser, ExplicitEmptyValueIsPresentEmptyString) {
  const auto p = parse({"--csv="});
  EXPECT_TRUE(p.has("csv"));
  // `--csv=` means "the value is the empty string", not "use the
  // fallback".
  EXPECT_EQ(p.get_string("csv", "fallback"), "");
}

TEST(ArgParser, ExplicitEmptyValueThrowsForNumericGetters) {
  const auto p = parse({"--trials=", "--alpha=", "--n="});
  EXPECT_THROW((void)p.get_u64("trials", 7), std::invalid_argument);
  EXPECT_THROW((void)p.get_double("alpha", 1.0), std::invalid_argument);
  EXPECT_THROW((void)p.get_u64_list("n", {1}), std::invalid_argument);
}

TEST(ArgParser, BareBooleanFallsBackInValueGetters) {
  // A bare flag carries no value, so value getters keep their fallback
  // (contrast with the explicit `--flag=` empty value above).
  const auto p = parse({"--quick"});
  EXPECT_TRUE(p.has("quick"));
  EXPECT_EQ(p.get_u64("quick", 3), 3u);
  EXPECT_EQ(p.get_string("quick", "dflt"), "dflt");
}

TEST(ArgParser, BooleanBeforeFlagDoesNotSwallowIt) {
  // "--quick --out x": --quick is followed by a flag token, so it stays
  // boolean instead of consuming "--out" as its value.
  const auto p = parse({"--quick", "--out", "x.json"});
  EXPECT_TRUE(p.has("quick"));
  EXPECT_EQ(p.get_string("out", ""), "x.json");
}

TEST(ArgParser, HasMarksFlagUsed) {
  const auto p = parse({"--quick"});
  EXPECT_TRUE(p.has("quick"));
  EXPECT_TRUE(p.unused().empty());
}
