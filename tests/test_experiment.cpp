#include "sim/experiment.hpp"

#include <gtest/gtest.h>

namespace cobra::sim {
namespace {

TEST(Experiment, DefaultReplicatesScales) {
  const auto base = default_replicates(32);
  EXPECT_GE(base, 4u);
}

}  // namespace
}  // namespace cobra::sim
