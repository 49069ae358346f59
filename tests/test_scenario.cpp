// The one design-point spec behind the CLI's batch modes and the serve
// daemon's job kinds: parse-time validation (every bad value is an
// exception, never an abort or a runaway allocation), the exact key set
// of each kind, and the report shape its tasks aggregate into.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "sprint/scenario.hpp"

namespace nocs::sprint {
namespace {

Config config_of(
    const std::vector<std::pair<std::string, std::string>>& kv) {
  Config cfg;
  for (const auto& [key, value] : kv) cfg.set(key, value);
  return cfg;
}

/// Parses `kind` from `kv` and checks every key was recognized, as the
/// CLI and the daemon both do.
Scenario parse(const std::string& kind,
               const std::vector<std::pair<std::string, std::string>>& kv) {
  const Config cfg = config_of(kv);
  Scenario s = Scenario::from_config(kind, cfg);
  cfg.reject_unknown();
  return s;
}

std::string parse_error(
    const std::string& kind,
    const std::vector<std::pair<std::string, std::string>>& kv) {
  try {
    (void)parse(kind, kv);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioParse, BadRatesFailFastWithTheRatesMessage) {
  // Non-positive steps used to loop until bad_alloc in the CLI.
  for (const char* rates : {"0.1:0:0.2", "0.1:-0.1:0.2", "0:0.1:0.2",
                            "0.3:0.1:0.2"})
    EXPECT_EQ(parse_error("sweep", {{"rates", rates}}),
              "rates must satisfy start > 0, step > 0, end >= start")
        << rates;
  EXPECT_EQ(parse_error("sweep", {{"rates", "0.0001:0.0001:1"}}),
            "rates expand to too many points");
  EXPECT_EQ(parse_error("sweep", {{"rates", "fast"}}),
            "rates must be start:step:end");
  EXPECT_EQ(parse_rates("0.1:0.1:0.3").size(), 3u);
  EXPECT_LE(parse_rates("0.001:0.001:4").size(), kMaxSweepPoints);
}

TEST(ScenarioParse, TaskCountFollowsTheKind) {
  EXPECT_EQ(parse("sweep", {{"rates", "0.05:0.1:0.45"}}).task_count(), 5u);
  EXPECT_EQ(parse("sweep", {}).task_count(), 10u);
  EXPECT_EQ(parse("simulate", {}).task_count(), 1u);
  EXPECT_EQ(parse("topo", {{"topology", "ring_circulant"}}).task_count(), 1u);
}

TEST(ScenarioParse, EachKindAcceptsExactlyItsKeys) {
  EXPECT_NO_THROW(parse("simulate", {{"level", "8"},
                                     {"scheme", "full"},
                                     {"classes", "2"},
                                     {"protocol", "true"},
                                     {"injection", "0.2"},
                                     {"warmup", "100"},
                                     {"measure", "400"},
                                     {"sim_threads", "2"},
                                     {"faults", "true"},
                                     {"fault_flip_rate", "1e-3"},
                                     {"watchdog", "1000"}}));
  EXPECT_NO_THROW(parse("sweep", {{"level", "8"},
                                  {"rates", "0.05:0.1:0.45"},
                                  {"traffic", "transpose"},
                                  {"pipeline", "3"},
                                  {"faults", "true"},
                                  {"fault_seed", "3"},
                                  {"watchdog", "1000"}}));
  EXPECT_NO_THROW(parse("topo", {{"topology", "ring_circulant"},
                                 {"ring_skip", "4"},
                                 {"level", "8"},
                                 {"injection", "0.05"}}));

  // A sweep has fixed phases and one scheme; topo has no faults or shards;
  // only a sweep has rates; run-environment keys belong to the caller.
  for (const auto& [kind, key] :
       std::vector<std::pair<std::string, std::string>>{
           {"sweep", "scheme"},      {"sweep", "injection"},
           {"sweep", "measure"},     {"sweep", "protocol"},
           {"topo", "faults"},       {"topo", "sim_threads"},
           {"simulate", "rates"},    {"simulate", "topology"},
           {"simulate", "report"},   {"sweep", "threads"},
           {"simulate", "checkpoint"}})
    EXPECT_NE(parse_error(kind, {{key, "1"}}).find("unknown config key '" +
                                                   key + "'"),
              std::string::npos)
        << kind << " accepted " << key;
  EXPECT_NE(parse_error("simulate", {{"injecton", "0.1"}})
                .find("did you mean 'injection'"),
            std::string::npos);
}

TEST(ScenarioParse, BadValuesThrowInsteadOfAborting) {
  for (const auto& kv : std::vector<std::pair<std::string, std::string>>{
           {"level", "1"},
           {"level", "17"},
           {"classes", "3"},
           {"pipeline", "4"},
           {"scheme", "fine"},
           {"traffic", "bogus"},
           {"measure", "0"},
           {"injection", "-0.1"},
           {"fault_flip_rate", "2"},
           {"fault_stuck", "99"},
           {"fault_ack_timeout", "0"}})
    EXPECT_FALSE(parse_error("simulate", {kv}).empty())
        << kv.first << "=" << kv.second;
  EXPECT_THROW(Scenario::from_config("plan", Config{}),
               std::invalid_argument);
}

TEST(Scenario, ReportLabelSitsAheadOfTheScenarioKeys) {
  const Scenario sim =
      parse("simulate", {{"warmup", "100"}, {"measure", "400"}});
  const json::Value result = sim.run_task(0, {});
  ASSERT_TRUE(result.is_object());
  EXPECT_EQ(sim.aggregate({result}).dump(), result.dump());

  // The CLI's "mode" follows the SimResults fields, right before "scheme".
  const json::Value report = sim.aggregate({result}, "mode");
  const auto& members = report.members();
  ASSERT_EQ(members.size(), result.members().size() + 1);
  std::size_t mode = 0;
  while (members[mode].first != "mode") ++mode;
  EXPECT_EQ(members[mode - 1].first, "resilience");
  EXPECT_EQ(members[mode + 1].first, "scheme");
  EXPECT_EQ(report.at("mode").as_string(), "simulate");
  EXPECT_EQ(report.at("power").at("total_mw").dump(),
            result.at("power").at("total_mw").dump());

  // A sweep's label leads its document.
  const Scenario sweep = parse("sweep", {{"rates", "0.1:0.1:0.2"}});
  std::vector<json::Value> points;
  for (std::size_t i = 0; i < sweep.task_count(); ++i)
    points.push_back(sweep.run_task(i, {}));
  const json::Value doc = sweep.aggregate(points, "kind");
  EXPECT_EQ(doc.members().front().first, "kind");
  EXPECT_EQ(doc.at("kind").as_string(), "sweep");
  EXPECT_EQ(doc.at("points").size(), 2u);
  EXPECT_EQ(doc.at("points").at(1).at("injection_rate").as_number(),
            points[1].at("injection_rate").as_number());
}

TEST(Scenario, StoppedTaskReturnsNullAndKeepsItsRun) {
  const Scenario sim = parse("simulate", {{"faults", "true"},
                                          {"fault_flip_rate", "1e-3"}});
  noc::CheckpointConfig ckpt;
  ckpt.stop_at = 300;
  TaskRun run;
  EXPECT_TRUE(sim.run_task(0, ckpt, &run).is_null());
  EXPECT_TRUE(run.results.interrupted);
  EXPECT_EQ(run.results.cycles, 300u);
  EXPECT_NE(run.injector, nullptr);
  EXPECT_NE(run.bundle.network, nullptr);
}

}  // namespace
}  // namespace nocs::sprint
