// The one design-point spec behind the CLI's batch modes and the serve
// daemon's job kinds: parse-time validation (every bad value is an
// exception, never an abort or a runaway allocation), the exact key set
// of each kind, and the report shape its tasks aggregate into.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "noc/parallel_sweep.hpp"
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

using KeyValues = std::vector<std::pair<std::string, std::string>>;

TEST(ScenarioFingerprint, EveryResultKeyChangesIt) {
  const KeyValues base = {{"faults", "true"}, {"classes", "2"}};
  const std::string fp = parse("simulate", base).fingerprint();
  for (const auto& [key, value] : KeyValues{
           {"classes", "4"},
           {"pipeline", "3"},
           {"level", "8"},
           {"traffic", "transpose"},
           {"seed", "2"},
           {"scheme", "full"},
           {"protocol", "true"},
           {"warmup", "1000"},
           {"measure", "5000"},
           {"injection", "0.2"},
           {"watchdog", "1000"},
           {"faults", "false"},
           {"fault_seed", "2"},
           {"fault_flip_rate", "1e-3"},
           {"fault_drop_rate", "1e-3"},
           {"fault_link_down_rate", "1e-4"},
           {"fault_link_down_cycles", "50"},
           {"fault_wake_fail_prob", "0.1"},
           {"fault_wake_retry", "10"},
           {"fault_wake_max_retries", "3"},
           {"fault_stuck", "5"},
           {"fault_stuck_from", "100"},
           {"fault_ack_timeout", "128"},
           {"fault_max_backoff", "2048"}}) {
    KeyValues kv = base;
    kv.emplace_back(key, value);
    EXPECT_NE(parse("simulate", kv).fingerprint(), fp) << key << "=" << value;
  }
  EXPECT_NE(parse("sweep", {{"rates", "0.1:0.1:0.3"}}).fingerprint(),
            parse("sweep", {{"rates", "0.1:0.1:0.2"}}).fingerprint());
  EXPECT_NE(parse("sweep", {}).fingerprint(), parse("simulate", {}).fingerprint());
  const std::string ring =
      parse("topo", {{"topology", "ring_circulant"}}).fingerprint();
  EXPECT_NE(parse("topo", {{"topology", "ring_circulant"}, {"ring_skip", "3"}})
                .fingerprint(),
            ring);
  EXPECT_NE(parse("topo", {{"topology", "mesh"}}).fingerprint(), ring);
  EXPECT_NE(parse("topo", {{"width", "8"}}).fingerprint(),
            parse("topo", {}).fingerprint());
}

TEST(ScenarioFingerprint, DefaultsAndRunEnvironmentKeysDoNotChangeIt) {
  const std::string fp = parse("simulate", {}).fingerprint();
  EXPECT_EQ(parse("simulate", {{"level", "4"},
                               {"injection", "0.10"},
                               {"sim_threads", "3"},
                               {"fault_seed", "9"}})  // faults are off
                .fingerprint(),
            fp);
  EXPECT_EQ(parse("sweep", {{"rates", "0.05:0.05:0.5"}}).fingerprint(),
            parse("sweep", {}).fingerprint());
}

TEST(ScenarioFingerprint, PinnedStringsNameTheManifestsOldRunsWrote) {
  // Captured before DesignPoint existed: a manifest written then must
  // still be found under the same name.
  EXPECT_EQ(parse("simulate", {}).fingerprint(), "scenario:4055ca8abcfca294");
  EXPECT_EQ(parse("simulate", {{"level", "8"},
                               {"classes", "2"},
                               {"protocol", "true"},
                               {"faults", "true"},
                               {"fault_flip_rate", "1e-3"}})
                .fingerprint(),
            "scenario:fd335b6058c354af");
  EXPECT_EQ(parse("sweep", {{"level", "8"}, {"rates", "0.05:0.1:0.25"}})
                .fingerprint(),
            "scenario:5aa1b713eb3cf79e");
  EXPECT_EQ(parse("topo", {{"topology", "ring_circulant"},
                           {"ring_skip", "4"},
                           {"level", "8"}})
                .fingerprint(),
            "scenario:0eff5635c9012c66");
}

TEST(DesignPoint, BuiltInCodeRunsAsTheParsedKeys) {
  const Scenario parsed = parse("simulate", {{"level", "8"},
                                             {"classes", "2"},
                                             {"protocol", "true"},
                                             {"seed", "5"},
                                             {"injection", "0.05"},
                                             {"warmup", "200"},
                                             {"measure", "800"},
                                             {"faults", "true"},
                                             {"fault_flip_rate", "1e-3"}});
  DesignPoint p;
  p.params.num_classes = 2;
  p.level = 8;
  p.request_reply = true;
  p.seed = 5;
  p.sim.injection_rate = 0.05;
  p.sim.warmup = 200;
  p.sim.measure = 800;
  p.sim.watchdog_cycles = 50000;  // the watchdog= default under faults
  p.faults.enabled = true;
  p.faults.flip_rate = 1e-3;
  const Scenario built(p);
  EXPECT_EQ(built.fingerprint(), parsed.fingerprint());
  EXPECT_EQ(built.run_task(0, {}).dump(), parsed.run_task(0, {}).dump());

  // A sweep is the point plus its rates; point i carries rate i and the
  // task's own seed.
  const Scenario parsed_sweep =
      parse("sweep", {{"level", "8"}, {"rates", "0.1:0.1:0.2"}});
  DesignPoint q;
  q.level = 8;
  q.sim.warmup = 1000;
  q.sim.measure = 6000;
  const Scenario built_sweep(q, {0.1, 0.2});
  EXPECT_EQ(built_sweep.fingerprint(), parsed_sweep.fingerprint());
  EXPECT_EQ(built_sweep.point(1).sim.injection_rate, 0.2);
  EXPECT_EQ(built_sweep.point(1).seed, task_seed(1, 1));
  EXPECT_EQ(built_sweep.run_task(1, {}).dump(),
            parsed_sweep.run_task(1, {}).dump());
}

TEST(ScenarioFingerprint, SweepManifestNeverReplaysAnotherLevel) {
  // A level-8 sweep's manifest reused for a level-4 sweep: the level-4
  // run must compute its own points, not print the level-8 table.
  const std::string path = ::testing::TempDir() + "level_manifest.json";
  std::remove(path.c_str());
  const auto run = [&path](const std::string& level) {
    const Scenario s =
        parse("sweep", {{"level", level}, {"rates", "0.05:0.1:0.15"}});
    snapshot::TaskManifest manifest(path, s.fingerprint());
    const std::vector<json::Value> points = noc::run_resumable(
        s.task_count(), 1, &manifest, nullptr,
        [&s](std::size_t i) { return s.run_task(i, {}); });
    return s.aggregate(points).dump();
  };
  const std::string level8 = run("8");
  const std::string level4 = run("4");
  std::remove(path.c_str());
  EXPECT_NE(level4, level8);
  EXPECT_EQ(level4, run("4"));  // a fresh level-4 run
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nocs::sprint
