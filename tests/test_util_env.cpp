#include "util/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "core/process.hpp"
#include "util/assert.hpp"

namespace cobra::util {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("COBRA_TEST_VAR");
    unsetenv("COBRA_SCALE");
    unsetenv("COBRA_THREADS");
    unsetenv("COBRA_SEED");
    clear_env_overrides();
  }
};

TEST_F(EnvTest, DoubleFallback) {
  unsetenv("COBRA_TEST_VAR");
  EXPECT_DOUBLE_EQ(env_double("COBRA_TEST_VAR", 2.5), 2.5);
  setenv("COBRA_TEST_VAR", "7.25", 1);
  EXPECT_DOUBLE_EQ(env_double("COBRA_TEST_VAR", 2.5), 7.25);
  setenv("COBRA_TEST_VAR", "not-a-number", 1);
  EXPECT_DOUBLE_EQ(env_double("COBRA_TEST_VAR", 2.5), 2.5);
}

TEST_F(EnvTest, IntFallback) {
  unsetenv("COBRA_TEST_VAR");
  EXPECT_EQ(env_int("COBRA_TEST_VAR", 42), 42);
  setenv("COBRA_TEST_VAR", "-17", 1);
  EXPECT_EQ(env_int("COBRA_TEST_VAR", 42), -17);
}

TEST_F(EnvTest, StringFallback) {
  unsetenv("COBRA_TEST_VAR");
  EXPECT_EQ(env_string("COBRA_TEST_VAR", "dflt"), "dflt");
  setenv("COBRA_TEST_VAR", "value", 1);
  EXPECT_EQ(env_string("COBRA_TEST_VAR", "dflt"), "value");
}

TEST_F(EnvTest, ScaleIgnoresNonPositive) {
  setenv("COBRA_SCALE", "-3", 1);
  EXPECT_DOUBLE_EQ(scale(), 1.0);
  setenv("COBRA_SCALE", "2.5", 1);
  EXPECT_DOUBLE_EQ(scale(), 2.5);
}

TEST_F(EnvTest, ScaledAppliesMultiplierAndFloor) {
  setenv("COBRA_SCALE", "0.001", 1);
  EXPECT_EQ(scaled(100, 5), 5);
  setenv("COBRA_SCALE", "3", 1);
  EXPECT_EQ(scaled(100, 5), 300);
}

TEST_F(EnvTest, ScaledRefusesProductsBeyondInt64) {
  // 400 · 1e18 has no int64 value: converting it was undefined behaviour
  // that came out as the floor, so a run silently shrank to 64 replicates.
  set_scale_override(1e18);
  try {
    (void)scaled(400, 64);
    ADD_FAILURE() << "an out-of-range product was accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--scale/COBRA_SCALE"), std::string::npos) << what;
    EXPECT_NE(what.find("base 400"), std::string::npos) << what;
    EXPECT_NE(what.find("env.cpp"), std::string::npos) << what;
  }
  set_scale_override(std::numeric_limits<double>::infinity());
  EXPECT_THROW((void)scaled(1), CheckError);
  // Large products that fit are returned exactly.
  set_scale_override(1e9);
  EXPECT_EQ(scaled(400, 64), 400'000'000'000);
}

TEST_F(EnvTest, ScaledU32RefusesValuesBeyond32Bits) {
  // 256 · 16777216.25 = 2^32 + 64: the unchecked cast to a 32-bit vertex
  // count wrapped it to n = 64, and general_bound listed path/n=64.
  set_scale_override(16777216.25);
  EXPECT_EQ(scaled(256, 64), 4'294'967'360);
  try {
    (void)scaled_u32(256, 64);
    ADD_FAILURE() << "a count beyond 2^32 - 1 was accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--scale/COBRA_SCALE"), std::string::npos) << what;
    EXPECT_NE(what.find("base 256"), std::string::npos) << what;
    EXPECT_NE(what.find("32-bit count"), std::string::npos) << what;
    EXPECT_NE(what.find("env.cpp"), std::string::npos) << what;
  }
  // A scale too large for int64 is refused by scaled() itself.
  set_scale_override(1e30);
  EXPECT_THROW((void)scaled_u32(1), CheckError);
  // The largest 32-bit count and the floor pass through unchanged.
  set_scale_override(1.0);
  EXPECT_EQ(scaled_u32(0xFFFFFFFF), 0xFFFFFFFFu);
  EXPECT_EQ(scaled_u32(0, 64), 64u);
  set_scale_override(0.001);
  EXPECT_EQ(scaled_u32(1024, 128), 128u);
}

TEST_F(EnvTest, MaxThreadsAtLeastOne) {
  setenv("COBRA_THREADS", "0", 1);
  EXPECT_GE(max_threads(), 1);
  setenv("COBRA_THREADS", "4", 1);
  EXPECT_EQ(max_threads(), 4);
}

TEST_F(EnvTest, GlobalSeedDefault) {
  unsetenv("COBRA_SEED");
  EXPECT_EQ(global_seed(), 20170724ull);
}

TEST_F(EnvTest, EngineDefaultsToAuto) {
  // COBRA_ENGINE is retired: the kernel picks the frontier representation
  // itself, so a stale variable in the environment selects nothing.
  setenv("COBRA_ENGINE", "dense", 1);
  EXPECT_EQ(core::resolve_engine(core::Engine::kDefault), core::Engine::kAuto);
  unsetenv("COBRA_ENGINE");
}

TEST_F(EnvTest, OverridesShadowEnvironmentUntilCleared) {
  setenv("COBRA_SCALE", "2.0", 1);
  setenv("COBRA_SEED", "111", 1);
  setenv("COBRA_THREADS", "3", 1);

  set_scale_override(0.5);
  set_seed_override(222);
  set_threads_override(7);
  EXPECT_DOUBLE_EQ(scale(), 0.5);
  EXPECT_EQ(scaled(100, 1), 50);
  EXPECT_EQ(global_seed(), 222ull);
  EXPECT_EQ(max_threads(), 7);

  clear_env_overrides();
  EXPECT_DOUBLE_EQ(scale(), 2.0);
  EXPECT_EQ(global_seed(), 111ull);
  EXPECT_EQ(max_threads(), 3);
}

TEST_F(EnvTest, OverrideValidation) {
  EXPECT_THROW(set_scale_override(0.0), CheckError);
  EXPECT_THROW(set_scale_override(-1.0), CheckError);
  set_threads_override(100000);  // clamped like the env path
  EXPECT_EQ(max_threads(), 1024);
  set_threads_override(-5);
  EXPECT_EQ(max_threads(), 1);
}

}  // namespace
}  // namespace cobra::util
