#include "runner/options.hpp"

#include <gtest/gtest.h>

#include "util/env.hpp"

namespace cobra::runner {
namespace {

std::optional<std::string> parse(std::vector<std::string> args,
                                 RunnerOptions& options) {
  return parse_args(args, options);
}

TEST(RunnerOptions, DefaultsAreUnset) {
  RunnerOptions o;
  EXPECT_EQ(parse({}, o), std::nullopt);
  EXPECT_FALSE(o.scale.has_value());
  EXPECT_FALSE(o.seed.has_value());
  EXPECT_FALSE(o.threads.has_value());
  EXPECT_FALSE(o.kernel_threads.has_value());
  EXPECT_EQ(o.out_dir, "bench_results");
  EXPECT_EQ(o.shard_index, 1);
  EXPECT_EQ(o.shard_count, 1);
  EXPECT_FALSE(o.resume);
  EXPECT_FALSE(o.list);
  EXPECT_EQ(o.max_cells, -1);
  EXPECT_TRUE(o.positional.empty());
  EXPECT_EQ(o.jobs, 0);
  EXPECT_TRUE(o.costs.empty());
  EXPECT_DOUBLE_EQ(o.heartbeat_timeout, 300.0);
  EXPECT_EQ(o.max_restarts, 3);
  EXPECT_EQ(o.inject_kill, 0);
}

TEST(RunnerOptions, ParsesSweepFlags) {
  RunnerOptions o;
  ASSERT_EQ(parse({"sweep", "families", "-j", "8", "--costs",
                   "old/families.costs", "--heartbeat-timeout", "45.5",
                   "--max-restarts", "5", "--inject-kill", "2"},
                  o),
            std::nullopt);
  EXPECT_EQ(o.jobs, 8);
  EXPECT_EQ(o.costs, "old/families.costs");
  EXPECT_DOUBLE_EQ(o.heartbeat_timeout, 45.5);
  EXPECT_EQ(o.max_restarts, 5);
  EXPECT_EQ(o.inject_kill, 2);

  RunnerOptions eq;
  ASSERT_EQ(parse({"--jobs=16"}, eq), std::nullopt);
  EXPECT_EQ(eq.jobs, 16);
}

TEST(RunnerOptions, RejectsInvalidSweepFlags) {
  RunnerOptions o;
  EXPECT_NE(parse({"-j", "0"}, o), std::nullopt);
  EXPECT_NE(parse({"-j", "9999"}, o), std::nullopt);
  EXPECT_NE(parse({"-j", "four"}, o), std::nullopt);
  EXPECT_NE(parse({"--costs"}, o), std::nullopt);
  EXPECT_NE(parse({"--heartbeat-timeout", "-1"}, o), std::nullopt);
  EXPECT_NE(parse({"--max-restarts", "-2"}, o), std::nullopt);
  EXPECT_NE(parse({"--inject-kill", "0"}, o), std::nullopt);
}

TEST(RunnerOptions, ParsesEverySpaceSeparatedFlag) {
  RunnerOptions o;
  ASSERT_EQ(parse({"run", "families", "--scale", "0.5", "--seed", "42",
                   "--threads", "8", "--out-dir", "sweep", "--shard", "2/8",
                   "--resume", "--filter", "fam", "--max-cells", "3"},
                  o),
            std::nullopt);
  EXPECT_EQ(o.positional, (std::vector<std::string>{"run", "families"}));
  EXPECT_DOUBLE_EQ(o.scale.value(), 0.5);
  EXPECT_EQ(o.seed.value(), 42u);
  EXPECT_EQ(o.threads.value(), 8);
  EXPECT_EQ(o.out_dir, "sweep");
  EXPECT_EQ(o.shard_index, 2);
  EXPECT_EQ(o.shard_count, 8);
  EXPECT_TRUE(o.resume);
  EXPECT_EQ(o.filter, "fam");
  EXPECT_EQ(o.max_cells, 3);
}

TEST(RunnerOptions, EngineFlagValidatedAtParseTime) {
  // The kernel picks the frontier representation itself: every spelling
  // of the retired --engine flag is an unknown flag rather than silently
  // ignored.
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--engine", "sparse"},
                                             {"--engine", "dense"},
                                             {"--engine", "auto"},
                                             {"--engine", "fast"},
                                             {"--engine=dense"},
                                             {"--engine"}}) {
    RunnerOptions o;
    const auto error = parse(args, o);
    ASSERT_TRUE(error.has_value()) << args[0];
    EXPECT_NE(error->find("unknown flag: --engine"), std::string::npos)
        << *error;
  }
  EXPECT_EQ(usage().find("--engine"), std::string::npos);
}

TEST(RunnerOptions, EngineReferenceIsAParseError) {
  // "reference" named the retired sequential draw protocol: an old command
  // line must fail, not silently run another protocol.
  RunnerOptions o;
  const auto error = parse({"--engine", "reference"}, o);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("unknown flag: --engine"), std::string::npos)
      << *error;
}

TEST(RunnerOptions, KernelThreadsFlagValidatedAtParseTime) {
  RunnerOptions o;
  ASSERT_EQ(parse({"--kernel-threads", "8"}, o), std::nullopt);
  EXPECT_EQ(o.kernel_threads.value(), 8);
  RunnerOptions eq;
  ASSERT_EQ(parse({"--kernel-threads=256"}, eq), std::nullopt);
  EXPECT_EQ(eq.kernel_threads.value(), 256);
  for (const std::string bad : {"0", "-1", "257", "four", "1.5", ""}) {
    RunnerOptions r;
    EXPECT_NE(parse({"--kernel-threads", bad}, r), std::nullopt) << bad;
  }
  RunnerOptions missing;
  EXPECT_NE(parse({"--kernel-threads"}, missing), std::nullopt);
}

TEST(RunnerOptions, KernelThreadsFlagReachesTheSessionDefault) {
  util::clear_env_overrides();
  RunnerOptions o;
  ASSERT_EQ(parse({"--kernel-threads", "3"}, o), std::nullopt);
  apply_env_overrides(o);
  EXPECT_EQ(util::kernel_threads(), 3);
  util::clear_env_overrides();
  EXPECT_EQ(util::kernel_threads(), 1);
}

TEST(RunnerOptions, ParsesEqualsSyntax) {
  RunnerOptions o;
  ASSERT_EQ(parse({"--scale=0.25", "--shard=3/4", "--out-dir=x"}, o),
            std::nullopt);
  EXPECT_DOUBLE_EQ(o.scale.value(), 0.25);
  EXPECT_EQ(o.shard_index, 3);
  EXPECT_EQ(o.shard_count, 4);
  EXPECT_EQ(o.out_dir, "x");
}

TEST(RunnerOptions, HelpAliases) {
  for (const std::string flag : {"-h", "--help", "help"}) {
    RunnerOptions o;
    ASSERT_EQ(parse({flag}, o), std::nullopt) << flag;
    EXPECT_TRUE(o.help) << flag;
  }
}

TEST(RunnerOptions, RejectsInvalidShards) {
  for (const std::string spec :
       {"0/4", "5/4", "-1/4", "2", "2/", "/4", "a/b", "1/0"}) {
    RunnerOptions o;
    EXPECT_NE(parse({"--shard", spec}, o), std::nullopt) << spec;
  }
  // Valid edge: i == k.
  RunnerOptions o;
  EXPECT_EQ(parse({"--shard", "4/4"}, o), std::nullopt);
}

TEST(RunnerOptions, RejectsBadValues) {
  RunnerOptions o;
  EXPECT_NE(parse({"--scale", "0"}, o), std::nullopt);
  EXPECT_NE(parse({"--scale", "-1"}, o), std::nullopt);
  EXPECT_NE(parse({"--scale", "abc"}, o), std::nullopt);
  EXPECT_NE(parse({"--seed", "1.5"}, o), std::nullopt);
  EXPECT_NE(parse({"--threads", "0"}, o), std::nullopt);
  EXPECT_NE(parse({"--max-cells", "-2"}, o), std::nullopt);
  EXPECT_NE(parse({"--out-dir", ""}, o), std::nullopt);
}

TEST(RunnerOptions, RejectsMissingValueAtEnd) {
  for (const std::string flag :
       {"--scale", "--seed", "--threads", "--out-dir", "--shard",
        "--filter", "--max-cells"}) {
    RunnerOptions o;
    EXPECT_NE(parse({flag}, o), std::nullopt) << flag;
  }
}

TEST(RunnerOptions, RejectsUnknownFlagsAndValuedBooleans) {
  RunnerOptions o;
  EXPECT_NE(parse({"--frobnicate"}, o), std::nullopt);
  EXPECT_NE(parse({"--resume=yes"}, o), std::nullopt);
  EXPECT_NE(parse({"--list=1"}, o), std::nullopt);
}

TEST(RunnerOptions, FlagValueMayLookLikeAFlag) {
  RunnerOptions o;
  ASSERT_EQ(parse({"--seed", "-7"}, o), std::nullopt);
  EXPECT_EQ(o.seed.value(), static_cast<std::uint64_t>(-7));
}

TEST(RunnerOptions, OverridesWinOverEnvironment) {
  util::clear_env_overrides();
  RunnerOptions o;
  ASSERT_EQ(parse({"--scale", "0.125", "--seed", "99", "--threads", "2"},
                  o),
            std::nullopt);
  apply_env_overrides(o);
  EXPECT_DOUBLE_EQ(util::scale(), 0.125);
  EXPECT_EQ(util::global_seed(), 99u);
  EXPECT_EQ(util::max_threads(), 2);
  util::clear_env_overrides();
}

TEST(RunnerOptions, UnsetFlagsLeaveEnvDefaults) {
  util::clear_env_overrides();
  const double env_scale = util::scale();
  RunnerOptions o;
  ASSERT_EQ(parse({"run"}, o), std::nullopt);
  apply_env_overrides(o);
  EXPECT_DOUBLE_EQ(util::scale(), env_scale);
  util::clear_env_overrides();
}

TEST(RunnerOptions, UsageMentionsEveryFlag) {
  const std::string text = usage();
  for (const std::string flag :
       {"--scale", "--seed", "--threads", "--kernel-threads", "--out-dir",
        "--shard", "--resume", "--filter", "--list", "--max-cells",
        "--help", "--jobs", "--costs", "--heartbeat-timeout",
        "--max-restarts", "--inject-kill"}) {
    EXPECT_NE(text.find(flag), std::string::npos) << flag;
  }
}

}  // namespace
}  // namespace cobra::runner
