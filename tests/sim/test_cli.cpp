#include "sim/cli.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

namespace mobichk::sim {
namespace {

ArgParser parse(std::initializer_list<const char*> argv_tail) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, EqualsSyntax) {
  const auto args = parse({"--length=5000", "--name=hello"});
  EXPECT_DOUBLE_EQ(args.get_f64("length", 0.0), 5000.0);
  EXPECT_EQ(args.get_string("name", ""), "hello");
}

TEST(ArgParser, SpaceSyntax) {
  const auto args = parse({"--seeds", "7", "--title", "abc"});
  EXPECT_EQ(args.get_u64("seeds", 0), 7u);
  EXPECT_EQ(args.get_string("title", ""), "abc");
}

TEST(ArgParser, BareFlagIsTrue) {
  const auto args = parse({"--verify", "--csv"});
  EXPECT_TRUE(args.get_flag("verify"));
  EXPECT_TRUE(args.get_flag("csv"));
  EXPECT_FALSE(args.get_flag("json"));
}

TEST(ArgParser, FlagFollowedByFlagDoesNotSwallow) {
  const auto args = parse({"--verify", "--seeds=3"});
  EXPECT_TRUE(args.get_flag("verify"));
  EXPECT_EQ(args.get_u64("seeds", 0), 3u);
}

TEST(ArgParser, DefaultsWhenMissing) {
  const auto args = parse({});
  EXPECT_DOUBLE_EQ(args.get_f64("x", 1.25), 1.25);
  EXPECT_EQ(args.get_u64("y", 9), 9u);
  EXPECT_EQ(args.get_u32("z", 4), 4u);
  EXPECT_EQ(args.get_string("s", "d"), "d");
  EXPECT_FALSE(args.has("x"));
}

TEST(ArgParser, PositionalArguments) {
  const auto args = parse({"run", "--seed=1", "extra"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "run");
  EXPECT_EQ(args.positional()[1], "extra");
  EXPECT_EQ(args.get_u64("seed", 0), 1u);
}

TEST(ArgParser, ExplicitBooleanValues) {
  const auto args = parse({"--a=true", "--b=1", "--c=yes", "--d=false"});
  EXPECT_TRUE(args.get_flag("a"));
  EXPECT_TRUE(args.get_flag("b"));
  EXPECT_TRUE(args.get_flag("c"));
  EXPECT_FALSE(args.get_flag("d"));
}

TEST(ArgParser, LastValueWins) {
  const auto args = parse({"--seed=1", "--seed=2"});
  EXPECT_EQ(args.get_u64("seed", 0), 2u);
}

TEST(ArgParser, NegativeNumbersViaEquals) {
  const auto args = parse({"--offset=-3.5"});
  EXPECT_DOUBLE_EQ(args.get_f64("offset", 0.0), -3.5);
}

TEST(ArgParser, RejectsTrailingGarbageInNumbers) {
  // "--seeds=5x" used to silently parse as 5; the error names the flag.
  const auto args = parse({"--seeds=5x", "--precision=0.04.1"});
  try {
    args.get_u32("seeds", 1);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--seeds"), std::string::npos) << e.what();
  }
  EXPECT_THROW(args.get_f64("precision", 0.0), std::invalid_argument);
}

TEST(ArgParser, RejectsNegativeUnsignedValues) {
  // std::stoull would wrap "-5" to 2^64 - 5; the parser must refuse it.
  const auto args = parse({"--max-seeds=-5"});
  EXPECT_THROW(args.get_u32("max-seeds", 1), std::invalid_argument);
  EXPECT_THROW(args.get_u64("max-seeds", 1), std::invalid_argument);
}

TEST(ArgParser, RejectsNonNumericText) {
  const auto args = parse({"--batch=lots"});
  EXPECT_THROW(args.get_u32("batch", 1), std::invalid_argument);
  EXPECT_THROW(args.get_f64("batch", 1.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FlagSet: the registered-flag schema on top of ArgParser
// ---------------------------------------------------------------------------

FlagSet demo_flags() {
  FlagSet fs("demo [flags]");
  fs.add("seeds", FlagType::kUInt, "3", "replication count")
      .add("precision", FlagType::kNumber, "0.04", "target relative CI")
      .add("title", FlagType::kString, "", "figure title")
      .add("csv", FlagType::kBool, "", "emit CSV");
  return fs;
}

ArgParser schema_parse(const FlagSet& fs, std::initializer_list<const char*> argv_tail) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
  return fs.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagSet, AcceptsRegisteredFlags) {
  const auto args = schema_parse(demo_flags(), {"--seeds=7", "--precision", "0.01", "--csv"});
  EXPECT_EQ(args.get_u64("seeds", 0), 7u);
  EXPECT_DOUBLE_EQ(args.get_f64("precision", 0.0), 0.01);
  EXPECT_TRUE(args.get_flag("csv"));
}

TEST(FlagSet, HelpIsAlwaysRegistered) {
  const auto args = schema_parse(demo_flags(), {"--help"});
  EXPECT_TRUE(args.get_flag("help"));
}

TEST(FlagSet, RejectsUnknownFlagWithSuggestion) {
  try {
    schema_parse(demo_flags(), {"--seedz=7"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown flag --seedz"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean --seeds?"), std::string::npos) << what;
    EXPECT_NE(what.find("--help"), std::string::npos) << what;
  }
}

TEST(FlagSet, SuggestsUniquePrefixExtension) {
  // "--prec" is a prefix of a registered flag; that beats edit distance.
  EXPECT_EQ(demo_flags().suggest("prec"), "precision");
  EXPECT_EQ(demo_flags().suggest("sed"), "seeds");      // distance 2
  EXPECT_EQ(demo_flags().suggest("zzzzzzzz"), "");      // nothing close
}

TEST(FlagSet, UnknownFlagWithNoNeighborOmitsSuggestion) {
  try {
    schema_parse(demo_flags(), {"--zzzzzzzz=1"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos) << e.what();
  }
}

TEST(FlagSet, EagerlyValidatesNumericValues) {
  // The PR 2 trailing-garbage fix must hold on the schema path too:
  // "--seeds=5x" fails at parse() naming the flag, not later at get_u64.
  try {
    schema_parse(demo_flags(), {"--seeds=5x"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--seeds"), std::string::npos) << e.what();
  }
  EXPECT_THROW(schema_parse(demo_flags(), {"--precision=0.04.1"}), std::invalid_argument);
  EXPECT_THROW(schema_parse(demo_flags(), {"--seeds=-5"}), std::invalid_argument);
}

TEST(FlagSet, DuplicateRegistrationThrows) {
  FlagSet fs("dup [flags]");
  fs.add("seeds", FlagType::kUInt, "3", "replication count");
  EXPECT_THROW(fs.add("seeds", FlagType::kString, "", "again"), std::logic_error);
  EXPECT_THROW(fs.add("help", FlagType::kBool, "", "shadows the builtin"), std::logic_error);
}

TEST(FlagSet, HelpPageListsEveryFlagAndDefault) {
  std::ostringstream os;
  demo_flags().print_help(os);
  const std::string page = os.str();
  EXPECT_NE(page.find("usage: demo [flags]"), std::string::npos);
  for (const char* needle : {"--help", "--seeds=<uint>", "--precision=<number>",
                             "--title=<string>", "--csv", "(default: 3)", "(default: 0.04)",
                             "replication count"}) {
    EXPECT_NE(page.find(needle), std::string::npos) << needle;
  }
  // Boolean flags take no =<type> suffix.
  EXPECT_EQ(page.find("--csv=<"), std::string::npos);
}

TEST(FlagSet, HelpSeparatesLongFlagsFromTheirHelpText) {
  FlagSet fs("long [flags]");
  fs.add("storage-bandwidth", FlagType::kNumber, "", "per-MSS stable-storage bandwidth")
      .add("seeds", FlagType::kUInt, "3", "replication count");
  std::ostringstream os;
  fs.print_help(os);
  const std::string page = os.str();
  // "  --storage-bandwidth=<number>" is 30 characters, past the column.
  EXPECT_NE(page.find("--storage-bandwidth=<number>  per-MSS"), std::string::npos) << page;
  // Short flags still pad to the 28-column help text.
  const std::string seeds_left = "  --seeds=<uint>";
  EXPECT_NE(page.find(seeds_left + std::string(28 - seeds_left.size(), ' ') + "replication count"),
            std::string::npos)
      << page;
}

}  // namespace
}  // namespace mobichk::sim
