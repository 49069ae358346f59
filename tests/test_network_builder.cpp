// Tests for the sprint-network builders.
#include <gtest/gtest.h>

#include <set>

#include "noc/simulator.hpp"
#include "sprint/network_builder.hpp"
#include "sprint/topology.hpp"

namespace nocs::sprint {
namespace {

noc::NetworkParams params() {
  noc::NetworkParams p;
  p.width = 4;
  p.height = 4;
  return p;
}

TEST(NocSprintingBundle, EndpointsAreAlgorithm1Prefix) {
  const NetworkBundle b = make_noc_sprinting_network(params(), 6, "uniform", 1);
  EXPECT_EQ(b.endpoints, active_set(params().shape(), 6, 0));
  EXPECT_EQ(b.network->endpoints(), b.endpoints);
  EXPECT_STREQ(b.policy->name(), "cdor");
}

TEST(NocSprintingBundle, DarkRegionIsGated) {
  const NetworkBundle b = make_noc_sprinting_network(params(), 4, "uniform", 1);
  const std::set<NodeId> active(b.endpoints.begin(), b.endpoints.end());
  for (NodeId id = 0; id < 16; ++id) {
    const auto state = b.network->router(id).power_state();
    if (active.count(id))
      EXPECT_EQ(state, noc::PowerState::kActive) << id;
    else
      EXPECT_EQ(state, noc::PowerState::kGated) << id;
  }
}

TEST(NocSprintingBundle, SimulatesCleanly) {
  NetworkBundle b = make_noc_sprinting_network(params(), 8, "uniform", 2);
  noc::SimConfig cfg;
  cfg.warmup = 200;
  cfg.measure = 2000;
  cfg.injection_rate = 0.1;
  const noc::SimResults r = run_simulation(*b.network, cfg);
  EXPECT_FALSE(r.saturated);
  EXPECT_GT(r.packets_ejected, 0u);
  // Gated routers never woke: the CDOR guarantee.
  EXPECT_EQ(b.network->total_counters().wake_events, 0u);
}

TEST(FullSprintingBundle, AllRoutersOnXyRouting) {
  const NetworkBundle b =
      make_full_sprinting_network(params(), 4, "uniform", 3);
  EXPECT_STREQ(b.policy->name(), "xy-dor");
  for (NodeId id = 0; id < 16; ++id)
    EXPECT_EQ(b.network->router(id).power_state(), noc::PowerState::kActive);
}

TEST(FullSprintingBundle, RandomMappingIncludesMasterAndIsDistinct) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const NetworkBundle b =
        make_full_sprinting_network(params(), 5, "uniform", seed);
    ASSERT_EQ(b.endpoints.size(), 5u);
    EXPECT_EQ(b.endpoints[0], 0);  // master always included
    std::set<NodeId> unique(b.endpoints.begin(), b.endpoints.end());
    EXPECT_EQ(unique.size(), 5u) << "seed " << seed;
    for (NodeId id : b.endpoints) EXPECT_TRUE(params().shape().valid(id));
  }
}

TEST(FullSprintingBundle, DifferentSeedsDifferentMappings) {
  std::set<std::vector<NodeId>> mappings;
  for (std::uint64_t seed = 0; seed < 10; ++seed)
    mappings.insert(
        make_full_sprinting_network(params(), 6, "uniform", seed).endpoints);
  EXPECT_GT(mappings.size(), 5u);  // overwhelmingly distinct
}

TEST(FullSprintingBundle, SameSeedSameMapping) {
  EXPECT_EQ(make_full_sprinting_network(params(), 6, "uniform", 7).endpoints,
            make_full_sprinting_network(params(), 6, "uniform", 7).endpoints);
}

TEST(Bundles, FullLevelSixteenUsesEveryNode) {
  const NetworkBundle b =
      make_full_sprinting_network(params(), 16, "uniform", 4);
  std::set<NodeId> unique(b.endpoints.begin(), b.endpoints.end());
  EXPECT_EQ(unique.size(), 16u);
}

TEST(Bundles, RejectLevelBelowTwo) {
  EXPECT_DEATH(make_noc_sprinting_network(params(), 1, "uniform", 1),
               "precondition");
  EXPECT_DEATH(make_full_sprinting_network(params(), 1, "uniform", 1),
               "precondition");
}

TEST(Bundles, OtherTrafficKinds) {
  for (const char* kind : {"neighbor", "transpose", "hotspot"}) {
    NetworkBundle b = make_noc_sprinting_network(params(), 8, kind, 9);
    noc::SimConfig cfg;
    cfg.warmup = 100;
    cfg.measure = 1000;
    cfg.injection_rate = 0.05;
    const noc::SimResults r = run_simulation(*b.network, cfg);
    EXPECT_GT(r.packets_ejected, 0u) << kind;
  }
}

}  // namespace
}  // namespace nocs::sprint
