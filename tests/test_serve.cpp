// Serve-daemon robustness suite: protocol validation, crash-safe ledger
// replay, retry/timeout/quarantine supervision, admission control, the
// fingerprint result cache, and the socket-free server front end.  Every
// scheduler test uses synthetic runners so failure paths are exercised
// deterministically in milliseconds.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/shutdown.hpp"
#include "common/snapshot.hpp"
#include "noc/parallel_sweep.hpp"
#include "serve/ledger.hpp"
#include "serve/protocol.hpp"
#include "serve/runner.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"

namespace nocs::serve {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Limits tuned so retries/timeouts resolve in milliseconds.
ServeLimits fast_limits() {
  ServeLimits l;
  l.workers = 2;
  l.max_attempts = 3;
  l.task_timeout_ms = 0;
  l.backoff_base_ms = 1;
  l.backoff_cap_ms = 4;
  l.supervise_every_ms = 2;
  l.wait_default_ms = 10000;
  return l;
}

JobSpec selftest_spec(int tasks, int sleep_ms = 1) {
  JobSpec spec;
  spec.kind = "selftest";
  spec.params.set("tasks", tasks);
  spec.params.set("sleep_ms", sleep_ms);
  return spec;
}

/// Runner that records which task indices it completed.
struct CountingRunner {
  std::mutex mu;
  std::vector<std::size_t> ran;

  TaskRunner fn() {
    return [this](const JobSpec&, const TaskContext& ctx) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        ran.push_back(ctx.task_index);
      }
      json::Value v = json::Value::object();
      v.set("task", static_cast<double>(ctx.task_index));
      v.set("attempt", ctx.attempt);
      return TaskOutcome::ok(std::move(v));
    };
  }

  std::vector<std::size_t> sorted() {
    const std::lock_guard<std::mutex> lock(mu);
    std::vector<std::size_t> v = ran;
    std::sort(v.begin(), v.end());
    return v;
  }
};

// --- protocol ---------------------------------------------------------------

TEST(Protocol, ParsesEveryOp) {
  for (const char* op : {"status", "metrics", "drain", "ping"}) {
    const ParseResult r =
        parse_request(std::string("{\"op\":\"") + op + "\"}");
    ASSERT_TRUE(r.ok) << op << ": " << r.error;
    EXPECT_EQ(r.request.op, op);
  }
  const ParseResult submit = parse_request(
      "{\"op\":\"submit\",\"kind\":\"selftest\",\"params\":{\"tasks\":3},"
      "\"priority\":\"high\"}");
  ASSERT_TRUE(submit.ok) << submit.error;
  EXPECT_EQ(submit.request.spec.kind, "selftest");
  EXPECT_EQ(submit.request.spec.priority, TaskPriority::kHigh);
  EXPECT_EQ(task_count(submit.request.spec), 3u);

  // The client forwards params as strings; numeric strings must expand
  // exactly like numbers (they already fingerprint identically).
  const ParseResult str_tasks = parse_request(
      "{\"op\":\"submit\",\"kind\":\"selftest\",\"params\":{\"tasks\":\"3\"}}");
  ASSERT_TRUE(str_tasks.ok) << str_tasks.error;
  EXPECT_EQ(task_count(str_tasks.request.spec), 3u);

  const ParseResult wait = parse_request(
      "{\"op\":\"wait\",\"job\":\"job-1\",\"timeout_ms\":250}");
  ASSERT_TRUE(wait.ok) << wait.error;
  EXPECT_EQ(wait.request.job_id, "job-1");
  EXPECT_EQ(wait.request.timeout_ms, 250u);
  EXPECT_TRUE(wait.request.has_timeout);

  const ParseResult watch = parse_request(
      "{\"op\":\"watch\",\"job\":\"job-2\",\"every_ms\":50}");
  ASSERT_TRUE(watch.ok) << watch.error;
  EXPECT_EQ(watch.request.op, "watch");
  EXPECT_EQ(watch.request.job_id, "job-2");
  EXPECT_EQ(watch.request.every_ms, 50u);
}

TEST(Protocol, WaitTimeoutAbsentZeroAndNowaitAreDistinct) {
  // No timeout on the wire: the server default applies.
  const ParseResult plain =
      parse_request("{\"op\":\"wait\",\"job\":\"j\"}");
  ASSERT_TRUE(plain.ok) << plain.error;
  EXPECT_FALSE(plain.request.has_timeout);

  // An explicit 0 is a real value — a non-blocking poll, not "default".
  const ParseResult zero =
      parse_request("{\"op\":\"wait\",\"job\":\"j\",\"timeout_ms\":0}");
  ASSERT_TRUE(zero.ok) << zero.error;
  EXPECT_TRUE(zero.request.has_timeout);
  EXPECT_EQ(zero.request.timeout_ms, 0u);

  // nowait:true is sugar for timeout_ms:0.
  const ParseResult nowait =
      parse_request("{\"op\":\"wait\",\"job\":\"j\",\"nowait\":true}");
  ASSERT_TRUE(nowait.ok) << nowait.error;
  EXPECT_TRUE(nowait.request.has_timeout);
  EXPECT_EQ(nowait.request.timeout_ms, 0u);

  // nowait:false asserts nothing.
  const ParseResult off =
      parse_request("{\"op\":\"wait\",\"job\":\"j\",\"nowait\":false}");
  ASSERT_TRUE(off.ok) << off.error;
  EXPECT_FALSE(off.request.has_timeout);
}

TEST(Protocol, RejectsMalformedRequests) {
  const char* bad[] = {
      "",                                     // empty
      "not json",                             // parse error
      "[1,2,3]",                              // not an object
      "{\"op\":42}",                          // op wrong type
      "{\"op\":\"launch\"}",                  // unknown op
      "{\"op\":\"submit\"}",                  // missing kind
      "{\"op\":\"submit\",\"kind\":\"x\"}",   // unknown kind
      "{\"op\":\"submit\",\"kind\":\"sweep\",\"params\":17}",
      "{\"op\":\"submit\",\"kind\":\"sweep\",\"params\":{\"a\":[1]}}",
      "{\"op\":\"submit\",\"kind\":\"sweep\","
      "\"params\":{\"rates\":\"nope\"}}",
      "{\"op\":\"submit\",\"kind\":\"sweep\","
      "\"params\":{\"rates\":\"0.5:-0.1:0.1\"}}",
      "{\"op\":\"submit\",\"kind\":\"selftest\",\"params\":{\"tasks\":0}}",
      "{\"op\":\"submit\",\"kind\":\"selftest\","
      "\"params\":{\"tasks\":\"lots\"}}",
      "{\"op\":\"submit\",\"kind\":\"selftest\","
      "\"params\":{\"tasks\":\"-2\"}}",
      "{\"op\":\"submit\",\"kind\":\"selftest\","
      "\"params\":{\"tasks\":99999}}",
      "{\"op\":\"submit\",\"kind\":\"selftest\",\"priority\":\"urgent\"}",
      "{\"op\":\"wait\"}",                    // missing job
      "{\"op\":\"wait\",\"job\":\"\"}",       // empty job
      "{\"op\":\"wait\",\"job\":\"j\",\"timeout_ms\":-5}",
      "{\"op\":\"watch\"}",                   // missing job
      "{\"op\":\"watch\",\"job\":\"j\",\"every_ms\":-1}",
      "{\"op\":\"watch\",\"job\":\"j\",\"every_ms\":\"fast\"}",
      "{\"op\":\"wait\",\"job\":\"j\",\"nowait\":7}",
  };
  for (const char* line : bad) {
    const ParseResult r = parse_request(line);
    EXPECT_FALSE(r.ok) << "accepted: " << line;
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(Protocol, FingerprintIsCanonical) {
  JobSpec a;
  a.kind = "sweep";
  a.params.set("level", 8);
  a.params.set("rates", "0.05:0.05:0.2");
  JobSpec b;
  b.kind = "sweep";
  b.params.set("rates", "0.05:0.05:0.2");  // different key order
  b.params.set("level", "8");              // string vs number
  b.priority = TaskPriority::kHigh;        // priority never changes results
  EXPECT_EQ(fingerprint(a), fingerprint(b));

  JobSpec c = a;
  c.params.set("seed", 2);
  EXPECT_NE(fingerprint(a), fingerprint(c));
  JobSpec d = a;
  d.kind = "simulate";
  EXPECT_NE(fingerprint(a), fingerprint(d));
}

TEST(Protocol, SpecJsonRoundTrips) {
  JobSpec spec;
  spec.kind = "sweep";
  spec.params.set("level", 8);
  spec.params.set("rates", "0.05:0.05:0.2");
  spec.priority = TaskPriority::kLow;
  const JobSpec back = spec_from_json(spec_to_json(spec));
  EXPECT_EQ(back.kind, spec.kind);
  EXPECT_EQ(back.priority, spec.priority);
  EXPECT_EQ(fingerprint(back), fingerprint(spec));
  EXPECT_THROW(spec_from_json(json::Value::parse("{\"kind\":\"x\"}")),
               std::invalid_argument);
  EXPECT_THROW(spec_from_json(json::Value::parse("[]")),
               std::invalid_argument);
}

TEST(Protocol, TaskCountIsTheScenarios) {
  // The rates grammar itself is pinned in test_scenario.
  JobSpec sweep;
  sweep.kind = "sweep";
  sweep.params.set("rates", "0.05:0.05:0.5");
  EXPECT_EQ(task_count(sweep), 10u);
  JobSpec sim;
  sim.kind = "simulate";
  EXPECT_EQ(task_count(sim), 1u);
}

// --- scheduler --------------------------------------------------------------

TEST(Scheduler, BackoffDelaySaturatesInsteadOfOverflowing) {
  // Normal capped-exponential progression.
  EXPECT_EQ(backoff_delay_ms(100, 5000, 1), 100u);
  EXPECT_EQ(backoff_delay_ms(100, 5000, 2), 200u);
  EXPECT_EQ(backoff_delay_ms(100, 5000, 3), 400u);
  EXPECT_EQ(backoff_delay_ms(100, 5000, 6), 3200u);
  EXPECT_EQ(backoff_delay_ms(100, 5000, 7), 5000u);

  // Regression: `base << (attempt - 1)` used to be computed before the
  // cap, so a large attempt count shifted past 64 bits and wrapped to a
  // tiny (or zero) delay.  The exponent must be clamped first.
  EXPECT_EQ(backoff_delay_ms(100, 5000, 64), 5000u);
  EXPECT_EQ(backoff_delay_ms(100, 5000, 65), 5000u);
  EXPECT_EQ(backoff_delay_ms(100, 5000, 100), 5000u);
  EXPECT_EQ(backoff_delay_ms(1, 5000, 1000000), 5000u);
  EXPECT_EQ(backoff_delay_ms(~0ull, 5000, 2), 5000u);

  // Degenerate corners.
  EXPECT_EQ(backoff_delay_ms(0, 5000, 50), 0u);    // backoff disabled
  EXPECT_EQ(backoff_delay_ms(9000, 5000, 1), 5000u);  // base above cap
  EXPECT_EQ(backoff_delay_ms(100, 5000, 0), 100u);    // clamped exponent
}

TEST(Scheduler, RunsJobAndServesCachedResubmission) {
  CountingRunner counting;
  JobScheduler sched(fast_limits(), counting.fn(), nullptr, nullptr);
  const JobSpec spec = selftest_spec(4);

  const SubmitOutcome first = sched.submit(spec);
  ASSERT_EQ(first.code, SubmitOutcome::Code::kAccepted);
  EXPECT_EQ(first.job_id, "job-1");
  const json::Value status = sched.wait(first.job_id);
  ASSERT_EQ(status.at("state").as_string(), "done")
      << status.dump();
  EXPECT_EQ(status.at("result").at("tasks").size(), 4u);
  EXPECT_EQ(counting.sorted(), (std::vector<std::size_t>{0, 1, 2, 3}));

  // Identical spec (even with another priority): replayed from the cache
  // bit-identically, without touching the runner again.
  JobSpec again = spec;
  again.priority = TaskPriority::kHigh;
  const SubmitOutcome second = sched.submit(again);
  ASSERT_EQ(second.code, SubmitOutcome::Code::kCached);
  EXPECT_EQ(second.job_id, first.job_id);
  EXPECT_EQ(second.cached.dump(), status.at("result").dump());
  EXPECT_EQ(counting.ran.size(), 4u);

  const json::Value s = sched.status();
  EXPECT_EQ(s.at("counters").at("cache_hits").as_number(), 1.0);
}

TEST(Scheduler, UnknownJobIs404) {
  CountingRunner counting;
  JobScheduler sched(fast_limits(), counting.fn(), nullptr, nullptr);
  const json::Value v = sched.job_status("job-99");
  EXPECT_FALSE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("code").as_number(), kCodeNotFound);
}

TEST(Scheduler, AdmissionControlRejectsExplicitly) {
  std::atomic<bool> release{false};
  auto gate = [&](const JobSpec&, const TaskContext& ctx) {
    while (!release.load() && !ctx.cancel.stop_requested())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return TaskOutcome::ok(json::Value::object());
  };
  ServeLimits limits = fast_limits();
  limits.max_jobs = 1;
  limits.max_pending_tasks = 4;
  JobScheduler sched(limits, gate, nullptr, nullptr);

  ASSERT_EQ(sched.submit(selftest_spec(1)).code,
            SubmitOutcome::Code::kAccepted);
  // Job queue full: a *different* spec bounces with a 429-style reject.
  const SubmitOutcome full = sched.submit(selftest_spec(2));
  EXPECT_EQ(full.code, SubmitOutcome::Code::kRejected);
  EXPECT_FALSE(full.error.empty());
  EXPECT_EQ(sched.status().at("counters").at("rejected").as_number(), 1.0);
  release.store(true);

  // Task bound: one job whose expansion exceeds the pending budget.
  ServeLimits tiny = fast_limits();
  tiny.max_pending_tasks = 2;
  CountingRunner counting;
  JobScheduler small(tiny, counting.fn(), nullptr, nullptr);
  EXPECT_EQ(small.submit(selftest_spec(3)).code,
            SubmitOutcome::Code::kRejected);
}

TEST(Scheduler, RetriesWithBackoffThenSucceeds) {
  std::atomic<int> calls{0};
  auto flaky = [&](const JobSpec&, const TaskContext& ctx) {
    ++calls;
    if (ctx.attempt < 3) return TaskOutcome::failed("induced");
    json::Value v = json::Value::object();
    v.set("attempt", ctx.attempt);
    return TaskOutcome::ok(std::move(v));
  };
  JobScheduler sched(fast_limits(), flaky, nullptr, nullptr);
  const SubmitOutcome out = sched.submit(selftest_spec(1));
  ASSERT_EQ(out.code, SubmitOutcome::Code::kAccepted);
  const json::Value status = sched.wait(out.job_id);
  ASSERT_EQ(status.at("state").as_string(), "done") << status.dump();
  EXPECT_EQ(status.at("result").at("tasks").at(0).at("attempt").as_number(),
            3.0);
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(sched.status().at("counters").at("retries").as_number(), 2.0);
}

TEST(Scheduler, QuarantinesAfterMaxAttempts) {
  std::atomic<int> calls{0};
  auto broken = [&](const JobSpec&, const TaskContext&) {
    ++calls;
    return TaskOutcome::failed("always broken");
  };
  ServeLimits limits = fast_limits();
  limits.max_attempts = 2;
  JobScheduler sched(limits, broken, nullptr, nullptr);
  const SubmitOutcome out = sched.submit(selftest_spec(1));
  const json::Value status = sched.wait(out.job_id);
  ASSERT_EQ(status.at("state").as_string(), "quarantined") << status.dump();
  EXPECT_NE(status.at("error").as_string().find("always broken"),
            std::string::npos);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(sched.status().at("jobs").at("quarantined").as_number(), 1.0);
  // A quarantined job never seeds the cache: resubmitting retries fresh.
  EXPECT_EQ(sched.submit(selftest_spec(1)).code,
            SubmitOutcome::Code::kAccepted);
}

TEST(Scheduler, WatchdogTimesOutHungTasksThenQuarantines) {
  auto hung = [](const JobSpec&, const TaskContext& ctx) {
    while (!ctx.cancel.stop_requested())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return TaskOutcome::cancelled();
  };
  ServeLimits limits = fast_limits();
  limits.max_attempts = 2;
  limits.task_timeout_ms = 25;
  JobScheduler sched(limits, hung, nullptr, nullptr);
  const SubmitOutcome out = sched.submit(selftest_spec(1));
  const json::Value status = sched.wait(out.job_id);
  ASSERT_EQ(status.at("state").as_string(), "quarantined") << status.dump();
  EXPECT_NE(status.at("error").as_string().find("timed out"),
            std::string::npos);
  EXPECT_EQ(sched.status().at("counters").at("timeouts").as_number(), 2.0);
}

TEST(Scheduler, DrainCancelsPromptlyAndKeepsStateQueryable) {
  std::atomic<int> started{0};
  auto slow = [&](const JobSpec&, const TaskContext& ctx) {
    ++started;
    for (int i = 0; i < 2000 && !ctx.cancel.stop_requested(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (ctx.cancel.stop_requested()) return TaskOutcome::cancelled();
    return TaskOutcome::ok(json::Value::object());
  };
  JobScheduler sched(fast_limits(), slow, nullptr, nullptr);
  const SubmitOutcome out = sched.submit(selftest_spec(4));
  ASSERT_EQ(out.code, SubmitOutcome::Code::kAccepted);
  while (started.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  sched.drain();
  EXPECT_TRUE(sched.draining());
  // Cancelled-by-drain is not a failure: the job is still recoverable.
  const json::Value status = sched.job_status(out.job_id);
  EXPECT_EQ(status.at("state").as_string(), "queued") << status.dump();
  // Draining admits nothing new, with an explicit 503-style outcome.
  EXPECT_EQ(sched.submit(selftest_spec(1)).code,
            SubmitOutcome::Code::kDraining);
  // wait() unblocks instead of hanging on a job that cannot finish.
  EXPECT_EQ(sched.wait(out.job_id, 60000).at("state").as_string(),
            "queued");
}

TEST(Scheduler, WaitZeroTimeoutIsImmediatePoll) {
  std::atomic<bool> release{false};
  auto gate = [&](const JobSpec&, const TaskContext& ctx) {
    while (!release.load() && !ctx.cancel.stop_requested())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return TaskOutcome::ok(json::Value::object());
  };
  JobScheduler sched(fast_limits(), gate, nullptr, nullptr);
  const SubmitOutcome out = sched.submit(selftest_spec(1));
  ASSERT_EQ(out.code, SubmitOutcome::Code::kAccepted);

  // Regression: timeout 0 used to mean "server default" (10 s here), so
  // polling a running job blocked.  It must return the current state
  // immediately.
  const auto t0 = std::chrono::steady_clock::now();
  const json::Value polled = sched.wait(out.job_id, 0);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 5000);
  EXPECT_NE(polled.at("state").as_string(), "done") << polled.dump();

  release.store(true);
  EXPECT_EQ(sched.wait(out.job_id).at("state").as_string(), "done");
}

// --- preemption -------------------------------------------------------------

TEST(Scheduler, HighPrioritySubmissionPreemptsLowerPriorityTask) {
  std::atomic<bool> low_started{false};
  std::atomic<int> low_runs{0};
  std::mutex order_mu;
  std::vector<std::string> finish_order;
  auto runner = [&](const JobSpec& spec, const TaskContext& ctx) {
    if (spec.priority == TaskPriority::kLow) {
      if (++low_runs == 1) {
        // First execution: occupy the only worker until preempted.
        low_started.store(true);
        while (!ctx.cancel.stop_requested())
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return TaskOutcome::cancelled();
      }
      const std::lock_guard<std::mutex> lock(order_mu);
      finish_order.push_back("low");
    } else {
      const std::lock_guard<std::mutex> lock(order_mu);
      finish_order.push_back("high");
    }
    json::Value v = json::Value::object();
    v.set("attempt", ctx.attempt);
    return TaskOutcome::ok(std::move(v));
  };
  ServeLimits limits = fast_limits();
  limits.workers = 1;
  JobScheduler sched(limits, runner, nullptr, nullptr);

  JobSpec low = selftest_spec(1);
  low.priority = TaskPriority::kLow;
  const SubmitOutcome low_out = sched.submit(low);
  ASSERT_EQ(low_out.code, SubmitOutcome::Code::kAccepted);
  while (!low_started.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  JobSpec high = selftest_spec(2);  // distinct spec: no fingerprint clash
  high.priority = TaskPriority::kHigh;
  const SubmitOutcome high_out = sched.submit(high);
  ASSERT_EQ(high_out.code, SubmitOutcome::Code::kAccepted);

  const json::Value high_done = sched.wait(high_out.job_id);
  ASSERT_EQ(high_done.at("state").as_string(), "done") << high_done.dump();
  const json::Value low_done = sched.wait(low_out.job_id);
  ASSERT_EQ(low_done.at("state").as_string(), "done") << low_done.dump();

  // The high job ran first even though the low job held the only worker.
  {
    const std::lock_guard<std::mutex> lock(order_mu);
    ASSERT_EQ(finish_order.size(), 3u);
    EXPECT_EQ(finish_order.front(), "high");
  }
  // Preemption is not a failure: the victim's attempt was not consumed.
  EXPECT_EQ(
      low_done.at("result").at("tasks").at(0).at("attempt").as_number(),
      1.0);
  const json::Value s = sched.status();
  EXPECT_EQ(s.at("counters").at("preemptions").as_number(), 1.0);
  EXPECT_EQ(s.at("counters").at("retries").as_number(), 0.0);
}

/// The real thing end to end: a cycle-accurate simulation (sharded across
/// sim_threads=2) is preempted mid-run by a high-priority job, checkpoints,
/// resumes, and its final report is byte-identical to an uninterrupted run.
TEST(Scheduler, PreemptedSimulationResumesBitIdentically) {
  JobSpec sim;
  sim.kind = "simulate";
  sim.params.set("level", 4);
  sim.params.set("warmup", 500);
  sim.params.set("measure", 20000);
  sim.params.set("injection", 0.05);
  sim.params.set("sim_threads", 2);
  sim.params.set("seed", 7);

  ServeLimits limits = fast_limits();
  limits.workers = 1;
  limits.wait_default_ms = 300000;

  std::string preempted_dump;
  {
    const std::string dir = tmp_path("serve_preempt_state");
    ::mkdir(dir.c_str(), 0755);
    std::remove((dir + "/job-1.task0.nocsnap").c_str());
    JobScheduler sched(limits, make_sim_runner(dir), make_sim_aggregator(),
                       nullptr);
    JobSpec low = sim;
    low.priority = TaskPriority::kLow;
    const SubmitOutcome out = sched.submit(low);
    ASSERT_EQ(out.code, SubmitOutcome::Code::kAccepted);

    // Let the simulation make real progress (the runner reports cycles
    // through the progress hook) before preempting it.
    bool progressed = false;
    for (int i = 0; i < 60000 && !progressed; ++i) {
      const json::Value st = sched.job_status(out.job_id);
      const json::Value* cycles = st.find("cycles");
      if (cycles != nullptr && cycles->as_number() > 0) progressed = true;
      else std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(progressed) << sched.job_status(out.job_id).dump();

    JobSpec high = selftest_spec(1, 1);
    high.priority = TaskPriority::kHigh;
    ASSERT_EQ(sched.submit(high).code, SubmitOutcome::Code::kAccepted);

    const json::Value done = sched.wait(out.job_id);
    ASSERT_EQ(done.at("state").as_string(), "done") << done.dump();
    preempted_dump = done.at("result").dump();
    EXPECT_GE(
        sched.status().at("counters").at("preemptions").as_number(), 1.0);
  }

  // Clean control run of the identical spec, never preempted.
  {
    const std::string dir = tmp_path("serve_preempt_clean");
    ::mkdir(dir.c_str(), 0755);
    std::remove((dir + "/job-1.task0.nocsnap").c_str());
    JobScheduler sched(limits, make_sim_runner(dir), make_sim_aggregator(),
                       nullptr);
    const SubmitOutcome out = sched.submit(sim);
    ASSERT_EQ(out.code, SubmitOutcome::Code::kAccepted);
    const json::Value done = sched.wait(out.job_id);
    ASSERT_EQ(done.at("state").as_string(), "done") << done.dump();
    EXPECT_EQ(done.at("result").dump(), preempted_dump);
  }
}

// --- streaming progress -----------------------------------------------------

TEST(Scheduler, WatchStreamsProgressFramesThenFinalStatus) {
  auto ticking = [](const JobSpec&, const TaskContext& ctx) {
    for (int i = 0; i < 40; ++i) {
      if (ctx.cancel.stop_requested()) return TaskOutcome::cancelled();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (ctx.report_progress)
        ctx.report_progress(static_cast<std::uint64_t>(i + 1));
    }
    return TaskOutcome::ok(json::Value::object());
  };
  ServeLimits limits = fast_limits();
  limits.progress_every_ms = 1;
  JobScheduler sched(limits, ticking, nullptr, nullptr);
  const SubmitOutcome out = sched.submit(selftest_spec(1));
  ASSERT_EQ(out.code, SubmitOutcome::Code::kAccepted);

  std::vector<json::Value> frames;
  const json::Value final_status =
      sched.watch(out.job_id, 1, [&](const json::Value& frame) {
        frames.push_back(frame);
        return true;
      });

  // The stream ends in the job's terminal status — not an event frame.
  ASSERT_EQ(final_status.at("state").as_string(), "done")
      << final_status.dump();
  EXPECT_EQ(final_status.find("event"), nullptr);

  // At least one progress frame arrived, cycles never went backwards.
  ASSERT_FALSE(frames.empty());
  double last_cycles = 0;
  for (const json::Value& f : frames) {
    ASSERT_TRUE(f.at("ok").as_bool()) << f.dump();
    EXPECT_EQ(f.at("event").as_string(), "progress");
    EXPECT_EQ(f.at("job").as_string(), out.job_id);
    const double cycles = f.at("cycles").as_number();
    EXPECT_GE(cycles, last_cycles) << f.dump();
    last_cycles = cycles;
    EXPECT_GE(f.at("queue_position").as_number(), 0.0);
  }
  EXPECT_GT(last_cycles, 0.0);
}

TEST(Scheduler, WatchUnknownJobIs404AndHangupStopsTheStream) {
  CountingRunner counting;
  JobScheduler sched(fast_limits(), counting.fn(), nullptr, nullptr);
  const json::Value missing =
      sched.watch("job-42", 0, [](const json::Value&) { return true; });
  EXPECT_FALSE(missing.at("ok").as_bool());
  EXPECT_EQ(missing.at("code").as_number(), kCodeNotFound);

  // A client that hangs up (emit returns false) ends the stream with the
  // job's current status instead of blocking until completion.
  std::atomic<bool> release{false};
  auto gate = [&](const JobSpec&, const TaskContext& ctx) {
    while (!release.load() && !ctx.cancel.stop_requested()) {
      if (ctx.report_progress) ctx.report_progress(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return TaskOutcome::ok(json::Value::object());
  };
  ServeLimits limits = fast_limits();
  limits.progress_every_ms = 1;
  JobScheduler gated(limits, gate, nullptr, nullptr);
  const SubmitOutcome out = gated.submit(selftest_spec(1));
  const json::Value last =
      gated.watch(out.job_id, 1, [](const json::Value&) { return false; });
  EXPECT_NE(last.at("state").as_string(), "done");
  release.store(true);
  EXPECT_EQ(gated.wait(out.job_id).at("state").as_string(), "done");
}

// --- ledger -----------------------------------------------------------------

TEST(Ledger, PersistsAcrossReopenAndSeedsTheCache) {
  const std::string path = tmp_path("ledger_reopen.nsrl");
  std::remove(path.c_str());
  const JobSpec spec = selftest_spec(3);
  std::string result_dump;
  {
    Ledger ledger(path);
    EXPECT_TRUE(ledger.replayed().empty());
    CountingRunner counting;
    JobScheduler sched(fast_limits(), counting.fn(), nullptr, &ledger);
    const SubmitOutcome out = sched.submit(spec);
    ASSERT_EQ(out.code, SubmitOutcome::Code::kAccepted);
    const json::Value status = sched.wait(out.job_id);
    ASSERT_EQ(status.at("state").as_string(), "done");
    result_dump = status.at("result").dump();
  }
  Ledger reopened(path);
  EXPECT_FALSE(reopened.truncated_on_open());
  // submit + 3 tasks + done
  ASSERT_EQ(reopened.replayed().size(), 5u);
  CountingRunner counting;
  JobScheduler sched(fast_limits(), counting.fn(), nullptr, &reopened);
  EXPECT_EQ(sched.recovered_jobs(), 0u);
  // The completed campaign replays from the cache: zero work re-done,
  // byte-identical result.
  const SubmitOutcome cached = sched.submit(spec);
  ASSERT_EQ(cached.code, SubmitOutcome::Code::kCached);
  EXPECT_EQ(cached.cached.dump(), result_dump);
  EXPECT_TRUE(counting.ran.empty());
}

TEST(Ledger, ReplayAfterCrashRunsOnlyMissingTasks) {
  const std::string path = tmp_path("ledger_crash.nsrl");
  std::remove(path.c_str());
  const JobSpec spec = selftest_spec(4);
  {
    // Simulated kill -9: submit + two task records are durable, then the
    // process vanished — no done record, no clean shutdown.
    Ledger ledger(path);
    json::Value submit = json::Value::object();
    submit.set("type", "submit");
    submit.set("job", "job-1");
    submit.set("spec", spec_to_json(spec));
    submit.set("fingerprint", fingerprint(spec));
    ASSERT_TRUE(ledger.append(submit));
    for (const int index : {0, 2}) {
      json::Value task = json::Value::object();
      task.set("type", "task");
      task.set("job", "job-1");
      task.set("task", index);
      json::Value result = json::Value::object();
      result.set("task", index);
      result.set("attempt", 1);
      task.set("result", std::move(result));
      ASSERT_TRUE(ledger.append(task));
    }
  }

  Ledger ledger(path);
  CountingRunner counting;
  JobScheduler sched(fast_limits(), counting.fn(), nullptr, &ledger);
  EXPECT_EQ(sched.recovered_jobs(), 1u);
  const json::Value status = sched.wait("job-1");
  ASSERT_EQ(status.at("state").as_string(), "done") << status.dump();
  EXPECT_TRUE(status.at("recovered").as_bool());
  EXPECT_EQ(status.at("result").at("tasks").size(), 4u);
  // No lost tasks, no duplicated tasks: exactly the two missing ones ran.
  EXPECT_EQ(counting.sorted(), (std::vector<std::size_t>{1, 3}));
  // Job numbering continues after the recovered job instead of colliding.
  EXPECT_EQ(sched.submit(selftest_spec(1)).job_id, "job-2");
}

TEST(Ledger, RecoveryAggregatesWhenOnlyDoneRecordIsMissing) {
  const std::string path = tmp_path("ledger_nodone.nsrl");
  std::remove(path.c_str());
  const JobSpec spec = selftest_spec(2);
  {
    Ledger ledger(path);
    json::Value submit = json::Value::object();
    submit.set("type", "submit");
    submit.set("job", "job-1");
    submit.set("spec", spec_to_json(spec));
    submit.set("fingerprint", fingerprint(spec));
    ledger.append(submit);
    for (const int index : {0, 1}) {
      json::Value task = json::Value::object();
      task.set("type", "task");
      task.set("job", "job-1");
      task.set("task", index);
      task.set("result", json::Value::object());
      ledger.append(task);
    }
  }
  Ledger ledger(path);
  CountingRunner counting;
  JobScheduler sched(fast_limits(), counting.fn(), nullptr, &ledger);
  // Every task result was durable; recovery only owes the aggregation.
  const json::Value status = sched.wait("job-1");
  EXPECT_EQ(status.at("state").as_string(), "done") << status.dump();
  EXPECT_TRUE(counting.ran.empty());
  EXPECT_EQ(sched.submit(spec).code, SubmitOutcome::Code::kCached);
}

/// A finished job keeps its result only as a compact dump, and every reply
/// parses it back.  A real simulate report (fractional latencies, nested
/// counters, power) must read the same through `job`, `wait` and a cached
/// resubmission, live and after the ledger is replayed, and equal a
/// direct run of the same scenario.
TEST(Ledger, SimulateResultReadsTheSameLiveAndReplayed) {
  const std::string path = tmp_path("ledger_simulate.nsrl");
  std::remove(path.c_str());
  JobSpec spec;
  spec.kind = "simulate";
  spec.params.set("warmup", 200);
  spec.params.set("measure", 1000);
  spec.params.set("injection", 0.1);
  spec.params.set("seed", 5);

  const sprint::Scenario scenario = scenario_of(spec);
  json::Value direct = scenario.aggregate({scenario.run_task(0, {})});
  direct.set("kind", "simulate");
  const std::string want = direct.dump();
  const double latency = direct.at("avg_packet_latency").as_number();
  ASSERT_NE(latency, static_cast<double>(static_cast<long long>(latency)))
      << "the check wants a fractional number in the result";

  const auto expect_every_reply = [&](JobScheduler& sched) {
    const json::Value waited = sched.wait("job-1");
    ASSERT_EQ(waited.at("state").as_string(), "done") << waited.dump();
    EXPECT_EQ(waited.at("result").dump(), want);
    EXPECT_EQ(sched.job_status("job-1").at("result").dump(), want);
    const SubmitOutcome cached = sched.submit(spec);
    ASSERT_EQ(cached.code, SubmitOutcome::Code::kCached);
    EXPECT_EQ(cached.job_id, "job-1");
    EXPECT_EQ(cached.cached.dump(), want);
  };
  {
    Ledger ledger(path);
    JobScheduler sched(fast_limits(), make_sim_runner(""),
                       make_sim_aggregator(), &ledger);
    ASSERT_EQ(sched.submit(spec).job_id, "job-1");
    expect_every_reply(sched);
  }
  Ledger reopened(path);
  JobScheduler sched(fast_limits(), make_sim_runner(""),
                     make_sim_aggregator(), &reopened);
  EXPECT_EQ(sched.recovered_jobs(), 0u);
  expect_every_reply(sched);
}

/// A crash between a sweep's last `task` record and its `done` record:
/// recovery aggregates the durable points with the real aggregator and
/// must produce a fresh run's result byte for byte, running no task.
TEST(Ledger, RecoveredSweepAggregatesLikeAFreshRun) {
  const std::string path = tmp_path("ledger_sweep_nodone.nsrl");
  std::remove(path.c_str());
  JobSpec spec;
  spec.kind = "sweep";
  spec.params.set("level", 8);
  spec.params.set("rates", "0.05:0.1:0.25");
  ASSERT_EQ(task_count(spec), 3u);

  std::string fresh;
  {
    JobScheduler sched(fast_limits(), make_sim_runner(""),
                       make_sim_aggregator(), nullptr);
    const json::Value done = sched.wait(sched.submit(spec).job_id);
    ASSERT_EQ(done.at("state").as_string(), "done") << done.dump();
    fresh = done.at("result").dump();
  }
  {
    Ledger ledger(path);
    json::Value submit = json::Value::object();
    submit.set("type", "submit");
    submit.set("job", "job-1");
    submit.set("spec", spec_to_json(spec));
    submit.set("fingerprint", fingerprint(spec));
    ASSERT_TRUE(ledger.append(submit));
    const sprint::Scenario scenario = scenario_of(spec);
    // Out of rate order, as parallel workers may finish them.
    for (const int index : {2, 0, 1}) {
      json::Value task = json::Value::object();
      task.set("type", "task");
      task.set("job", "job-1");
      task.set("task", index);
      task.set("result", scenario.run_task(index, {}));
      ASSERT_TRUE(ledger.append(task));
    }
  }
  Ledger ledger(path);
  std::atomic<int> runs{0};
  TaskRunner sim = make_sim_runner("");
  TaskRunner counted = [&](const JobSpec& s, const TaskContext& ctx) {
    ++runs;
    return sim(s, ctx);
  };
  JobScheduler sched(fast_limits(), counted, make_sim_aggregator(), &ledger);
  EXPECT_EQ(sched.recovered_jobs(), 1u);
  const json::Value status = sched.wait("job-1");
  ASSERT_EQ(status.at("state").as_string(), "done") << status.dump();
  EXPECT_EQ(status.at("result").dump(), fresh);
  EXPECT_EQ(runs.load(), 0);
  const SubmitOutcome cached = sched.submit(spec);
  ASSERT_EQ(cached.code, SubmitOutcome::Code::kCached);
  EXPECT_EQ(cached.cached.dump(), fresh);
}

/// A done job's per-task results are released at its `done` record, so a
/// task record after it (only a hand-edited log has one) must be skipped,
/// not written into the released vector.
TEST(Ledger, TaskRecordAfterDoneIsSkipped) {
  const std::string path = tmp_path("ledger_late_task.nsrl");
  std::remove(path.c_str());
  const JobSpec spec = selftest_spec(2);
  {
    Ledger ledger(path);
    json::Value submit = json::Value::object();
    submit.set("type", "submit");
    submit.set("job", "job-1");
    submit.set("spec", spec_to_json(spec));
    submit.set("fingerprint", fingerprint(spec));
    ASSERT_TRUE(ledger.append(submit));
    json::Value done = json::Value::object();
    done.set("type", "done");
    done.set("job", "job-1");
    done.set("result", 1.5);
    ASSERT_TRUE(ledger.append(done));
    json::Value task = json::Value::object();
    task.set("type", "task");
    task.set("job", "job-1");
    task.set("task", 1);
    task.set("result", json::Value::object());
    ASSERT_TRUE(ledger.append(task));
  }
  Ledger ledger(path);
  CountingRunner counting;
  JobScheduler sched(fast_limits(), counting.fn(), nullptr, &ledger);
  const json::Value status = sched.job_status("job-1");
  EXPECT_EQ(status.at("state").as_string(), "done") << status.dump();
  EXPECT_EQ(status.at("result").dump(), "1.5");
  EXPECT_EQ(status.at("completed_tasks").as_number(), 2.0);
  EXPECT_EQ(sched.status().at("tasks").at("recovered").as_number(), 0.0);
  EXPECT_TRUE(counting.ran.empty());
}

TEST(Ledger, DamagedTailIsTruncatedAndPrefixReplayed) {
  const std::string path = tmp_path("ledger_damaged.nsrl");
  std::remove(path.c_str());
  {
    Ledger ledger(path);
    json::Value rec = json::Value::object();
    rec.set("type", "task");
    rec.set("job", "job-1");
    rec.set("task", 0);
    rec.set("result", json::Value::object());
    ASSERT_TRUE(ledger.append(rec));
  }
  {
    // A record half-written at kill -9 time: frame header present,
    // payload cut short.
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::uint32_t magic = snapshot::kRecordMagic;
    const std::uint64_t len = 1000;
    std::fwrite(&magic, sizeof magic, 1, f);
    std::fwrite(&len, sizeof len, 1, f);
    std::fwrite("partial", 1, 7, f);
    std::fclose(f);
  }
  Ledger reopened(path);
  EXPECT_TRUE(reopened.truncated_on_open());
  ASSERT_EQ(reopened.replayed().size(), 1u);
  EXPECT_EQ(reopened.replayed().front().at("type").as_string(), "task");
  // After truncation the file appends cleanly again.
  json::Value rec = json::Value::object();
  rec.set("type", "task");
  rec.set("job", "job-1");
  rec.set("task", 1);
  rec.set("result", json::Value::object());
  EXPECT_TRUE(reopened.append(rec));
  Ledger again(path);
  EXPECT_FALSE(again.truncated_on_open());
  EXPECT_EQ(again.replayed().size(), 2u);
}

TEST(Ledger, RejectsForeignFiles) {
  const std::string path = tmp_path("ledger_foreign.nsrl");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::string payload = "{\"type\":\"open\",\"magic\":\"other\"}";
    snapshot::append_record(
        f, reinterpret_cast<const std::uint8_t*>(payload.data()),
        payload.size());
    std::fclose(f);
  }
  EXPECT_THROW(Ledger ledger(path), std::runtime_error);
}

TEST(Ledger, RefusesAFileThatIsNotARecordLog) {
  // A file with no record frame at byte 0 is someone else's data, not a
  // ledger with a damaged tail: refused, and not one byte is cut.
  const std::string path = tmp_path("ledger_not_a_log.json");
  const std::string text =
      "{\"magic\": \"nocs-sweep-manifest\", \"version\": 1, \"completed\": {}}";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  EXPECT_THROW(Ledger ledger(path), std::runtime_error);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string after(text.size() + 1, '\0');
  after.resize(std::fread(after.data(), 1, after.size(), f));
  std::fclose(f);
  EXPECT_EQ(after, text);
  std::remove(path.c_str());
}

/// tests/data/ledger_parent.nsrl: a ledger an earlier build wrote — two
/// finished 4x4 `simulate` jobs, then a 3-point `sweep` job (job-3)
/// killed after its first task record.
TEST(Ledger, ReplaysALedgerAnEarlierBuildWrote) {
  const std::string fixture =
      std::string(NOCS_TEST_DATA_DIR) + "/ledger_parent.nsrl";
  const std::string path = tmp_path("ledger_parent_copy.nsrl");
  {
    std::FILE* in = std::fopen(fixture.c_str(), "rb");
    ASSERT_NE(in, nullptr) << fixture;
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, in)) > 0)
      std::fwrite(buf, 1, n, out);
    std::fclose(in);
    std::fclose(out);
  }
  // The finished jobs' results exactly as the earlier build wrote them.
  std::vector<std::pair<JobSpec, std::string>> finished;
  std::map<std::string, JobSpec> specs;
  for (const auto& bytes : snapshot::scan_records(fixture).records) {
    const std::string text(bytes.begin(), bytes.end());
    const json::Value rec = json::Value::parse(text);
    const std::string type = rec.at("type").as_string();
    if (type == "submit")
      specs[rec.at("job").as_string()] = spec_from_json(rec.at("spec"));
    if (type != "done") continue;
    const std::string marker = "\"result\":";
    const std::size_t at = text.find(marker);
    ASSERT_NE(at, std::string::npos);
    // The result object runs to the record's closing brace.
    finished.emplace_back(specs.at(rec.at("job").as_string()),
                          text.substr(at + marker.size(),
                                      text.size() - at - marker.size() - 1));
  }
  ASSERT_EQ(finished.size(), 2u);

  Ledger ledger(path);
  EXPECT_FALSE(ledger.truncated_on_open());
  std::mutex mu;
  std::vector<std::size_t> ran;
  const TaskRunner sim = make_sim_runner("");
  const TaskRunner counting = [&](const JobSpec& spec,
                                  const TaskContext& ctx) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      ran.push_back(ctx.task_index);
    }
    return sim(spec, ctx);
  };
  JobScheduler sched(fast_limits(), counting, make_sim_aggregator(), &ledger);
  EXPECT_EQ(sched.recovered_jobs(), 1u);
  const json::Value sweep = sched.wait("job-3");
  ASSERT_EQ(sweep.at("state").as_string(), "done") << sweep.dump();
  {
    const std::lock_guard<std::mutex> lock(mu);
    std::sort(ran.begin(), ran.end());
    // Only the two tasks the kill cut off run again.
    EXPECT_EQ(ran, (std::vector<std::size_t>{1, 2}));
  }
  for (const auto& [spec, parent_result] : finished) {
    const SubmitOutcome cached = sched.submit(spec);
    ASSERT_EQ(cached.code, SubmitOutcome::Code::kCached);
    EXPECT_EQ(cached.cached.dump(), parent_result);
  }
  // The resumed sweep equals an uninterrupted run under this build.
  JobScheduler fresh(fast_limits(), make_sim_runner(""),
                     make_sim_aggregator(), nullptr);
  const SubmitOutcome direct = fresh.submit(specs.at("job-3"));
  ASSERT_EQ(direct.code, SubmitOutcome::Code::kAccepted);
  EXPECT_EQ(fresh.wait(direct.job_id).at("result").dump(),
            sweep.at("result").dump());
  std::remove(path.c_str());
}

// --- ledger compaction ------------------------------------------------------

/// Appends a synthetic interrupted job (submit + one of two task results)
/// through the public API, as a crash would leave it.
void append_interrupted_job(Ledger& ledger, const std::string& job_id,
                            const JobSpec& spec) {
  json::Value submit = json::Value::object();
  submit.set("type", "submit");
  submit.set("job", job_id);
  submit.set("spec", spec_to_json(spec));
  submit.set("fingerprint", fingerprint(spec));
  ASSERT_TRUE(ledger.append(submit));
  json::Value task = json::Value::object();
  task.set("type", "task");
  task.set("job", job_id);
  task.set("task", 0);
  json::Value result = json::Value::object();
  result.set("task", 0);
  result.set("attempt", 1);
  task.set("result", std::move(result));
  ASSERT_TRUE(ledger.append(task));
}

TEST(Ledger, CompactionKeepsTerminalResultsAndLiveTasks) {
  const std::string path = tmp_path("ledger_compact.nsrl");
  std::remove(path.c_str());
  const JobSpec finished = selftest_spec(4);
  const JobSpec interrupted = selftest_spec(2, 3);

  std::string result_dump;
  {
    // One campaign runs to completion: submit + 4 tasks + done on disk.
    Ledger ledger(path);
    CountingRunner counting;
    JobScheduler sched(fast_limits(), counting.fn(), nullptr, &ledger);
    const SubmitOutcome out = sched.submit(finished);
    ASSERT_EQ(out.code, SubmitOutcome::Code::kAccepted);
    const json::Value status = sched.wait(out.job_id);
    ASSERT_EQ(status.at("state").as_string(), "done");
    result_dump = status.at("result").dump();

    // The scheduler surfaces ledger health in its status document.
    const json::Value s = sched.status();
    EXPECT_TRUE(s.at("ledger").at("healthy").as_bool());
    EXPECT_GT(s.at("ledger").at("bytes").as_number(), 0.0);
  }
  {
    // A second campaign dies mid-flight, then the log is compacted: the
    // finished job collapses to submit + done (its per-task records are
    // dead weight), the live job keeps its partial task records.
    Ledger ledger(path);
    append_interrupted_job(ledger, "job-2", interrupted);
    const std::uint64_t before = ledger.size_bytes();
    ASSERT_TRUE(ledger.compact());
    EXPECT_LT(ledger.size_bytes(), before);
    EXPECT_EQ(ledger.compactions(), 1u);
    EXPECT_TRUE(ledger.healthy());
  }

  // Replay after compaction: the cached result is byte-identical and the
  // interrupted job still owes exactly its missing task.
  Ledger ledger(path);
  EXPECT_FALSE(ledger.truncated_on_open());
  CountingRunner counting;
  JobScheduler sched(fast_limits(), counting.fn(), nullptr, &ledger);
  EXPECT_EQ(sched.recovered_jobs(), 1u);
  const json::Value done = sched.wait("job-2");
  ASSERT_EQ(done.at("state").as_string(), "done") << done.dump();
  EXPECT_EQ(counting.sorted(), (std::vector<std::size_t>{1}));
  const SubmitOutcome cached = sched.submit(finished);
  ASSERT_EQ(cached.code, SubmitOutcome::Code::kCached);
  EXPECT_EQ(cached.cached.dump(), result_dump);
}

TEST(Ledger, AutoCompactionTriggersPastThreshold) {
  const std::string path = tmp_path("ledger_autocompact.nsrl");
  std::remove(path.c_str());
  std::vector<JobSpec> specs;
  std::string first_dump;
  {
    Ledger ledger(path, 2048);
    CountingRunner counting;
    JobScheduler sched(fast_limits(), counting.fn(), nullptr, &ledger);
    for (int i = 0; i < 12; ++i) {
      JobSpec spec = selftest_spec(4, i + 1);  // distinct fingerprints
      specs.push_back(spec);
      const SubmitOutcome out = sched.submit(spec);
      ASSERT_EQ(out.code, SubmitOutcome::Code::kAccepted);
      const json::Value status = sched.wait(out.job_id);
      ASSERT_EQ(status.at("state").as_string(), "done") << status.dump();
      if (i == 0) first_dump = status.at("result").dump();
    }
    // Crossing the threshold (with the regrowth guard) compacted at
    // least once, and the snapshot stays well under the raw append size.
    EXPECT_GE(ledger.compactions(), 1u);
  }
  Ledger reopened(path, 2048);
  EXPECT_FALSE(reopened.truncated_on_open());
  CountingRunner counting;
  JobScheduler sched(fast_limits(), counting.fn(), nullptr, &reopened);
  EXPECT_EQ(sched.recovered_jobs(), 0u);
  // Every finished campaign survived every compaction, byte-identically.
  for (const JobSpec& spec : specs) {
    const SubmitOutcome cached = sched.submit(spec);
    ASSERT_EQ(cached.code, SubmitOutcome::Code::kCached);
  }
  EXPECT_EQ(sched.submit(specs.front()).cached.dump(), first_dump);
}

TEST(Ledger, KillDuringCompactionRecoversFromEveryState) {
  const std::string path = tmp_path("ledger_killcompact.nsrl");
  const std::string tmp = path + ".compact.tmp";
  std::remove(path.c_str());
  const JobSpec spec = selftest_spec(3);
  std::string result_dump;
  {
    Ledger ledger(path);
    CountingRunner counting;
    JobScheduler sched(fast_limits(), counting.fn(), nullptr, &ledger);
    const SubmitOutcome out = sched.submit(spec);
    result_dump = sched.wait(out.job_id).at("result").dump();
  }

  // State 1 — killed before the rename, garbage already in the temp
  // file: the old log is intact and wins; the temp file is swept away.
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("garbage mid-compaction", 1, 22, f);
    std::fclose(f);
    Ledger ledger(path);
    EXPECT_FALSE(ledger.truncated_on_open());
    EXPECT_EQ(ledger.replayed().size(), 5u);  // submit + 3 tasks + done
    struct stat st{};
    EXPECT_NE(::stat(tmp.c_str(), &st), 0) << "stale temp file not removed";
  }

  // State 2 — killed mid-write with a *valid-looking* prefix in the temp
  // file (half the real log): still ignored, the old log still wins.
  {
    std::FILE* in = std::fopen(path.c_str(), "rb");
    ASSERT_NE(in, nullptr);
    std::fseek(in, 0, SEEK_END);
    const long size = std::ftell(in);
    std::fseek(in, 0, SEEK_SET);
    std::vector<char> half(static_cast<std::size_t>(size) / 2);
    ASSERT_EQ(std::fread(half.data(), 1, half.size(), in), half.size());
    std::fclose(in);
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(half.data(), 1, half.size(), f);
    std::fclose(f);

    Ledger ledger(path);
    EXPECT_FALSE(ledger.truncated_on_open());
    EXPECT_EQ(ledger.replayed().size(), 5u);
  }

  // State 3 — killed right after the rename: the compacted file *is* the
  // log now, and it replays to the same job state (cache included).
  {
    Ledger ledger(path);
    ASSERT_TRUE(ledger.compact());
  }
  Ledger ledger(path);
  EXPECT_FALSE(ledger.truncated_on_open());
  CountingRunner counting;
  JobScheduler sched(fast_limits(), counting.fn(), nullptr, &ledger);
  const SubmitOutcome cached = sched.submit(spec);
  ASSERT_EQ(cached.code, SubmitOutcome::Code::kCached);
  EXPECT_EQ(cached.cached.dump(), result_dump);
}

TEST(Ledger, FailsClosedWhenDamagedTailCannotBeRepaired) {
  if (::geteuid() == 0)
    GTEST_SKIP() << "root bypasses file permission checks, so a read-only "
                    "file cannot force truncate() to fail";
  const std::string path = tmp_path("ledger_failclosed.nsrl");
  std::remove(path.c_str());
  {
    Ledger ledger(path);
    json::Value rec = json::Value::object();
    rec.set("type", "task");
    rec.set("job", "job-1");
    rec.set("task", 0);
    rec.set("result", json::Value::object());
    ASSERT_TRUE(ledger.append(rec));
  }
  {
    // Torn frame at the tail, then the file becomes read-only: the
    // repair truncate() must fail.
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::uint32_t magic = snapshot::kRecordMagic;
    const std::uint64_t len = 1000;
    std::fwrite(&magic, sizeof magic, 1, f);
    std::fwrite(&len, sizeof len, 1, f);
    std::fwrite("partial", 1, 7, f);
    std::fclose(f);
  }
  ASSERT_EQ(::chmod(path.c_str(), 0444), 0);

  Ledger ledger(path);
  // The valid prefix still replays — recovery is not lost — but the
  // ledger refuses to bury new records after corrupt bytes.
  EXPECT_FALSE(ledger.healthy());
  EXPECT_EQ(ledger.replayed().size(), 1u);
  json::Value rec = json::Value::object();
  rec.set("type", "task");
  rec.set("job", "job-1");
  rec.set("task", 1);
  rec.set("result", json::Value::object());
  EXPECT_FALSE(ledger.append(rec));

  // The daemon surfaces the failure as a 503 on submit instead of
  // acknowledging work it cannot make durable.
  CountingRunner counting;
  JobScheduler sched(fast_limits(), counting.fn(), nullptr, &ledger);
  const SubmitOutcome out = sched.submit(selftest_spec(1));
  EXPECT_EQ(out.code, SubmitOutcome::Code::kDraining);
  EXPECT_FALSE(out.error.empty());
  EXPECT_FALSE(sched.status().at("ledger").at("healthy").as_bool());

  ::chmod(path.c_str(), 0644);  // let TempDir cleanup reclaim it
}

// --- server front end -------------------------------------------------------

ServerOptions test_server_options(const std::string& dir) {
  ServerOptions opts;
  opts.port = 0;  // ephemeral
  opts.dir = dir;
  opts.limits = fast_limits();
  return opts;
}

/// TempDir() persists across test runs; start every server test from an
/// empty ledger so replay counts are deterministic.
void wipe_state_dir(const std::string& dir) {
  std::remove((dir + "/ledger.nsrl").c_str());
}

TEST(Server, HandlesProtocolLinesEndToEnd) {
  const std::string dir = tmp_path("serve_e2e");
  wipe_state_dir(dir);
  Server server(test_server_options(dir));
  EXPECT_GT(server.port(), 0);

  EXPECT_TRUE(server.handle_line("{\"op\":\"ping\"}").at("pong").as_bool());
  EXPECT_EQ(server.handle_line("garbage").at("code").as_number(),
            kCodeBadRequest);
  EXPECT_EQ(server.handle_line("{\"op\":\"job\",\"job\":\"job-9\"}")
                .at("code")
                .as_number(),
            kCodeNotFound);

  const json::Value submitted = server.handle_line(
      "{\"op\":\"submit\",\"kind\":\"selftest\","
      "\"params\":{\"tasks\":2,\"sleep_ms\":1}}");
  ASSERT_TRUE(submitted.at("ok").as_bool()) << submitted.dump();
  const std::string job = submitted.at("job").as_string();

  // A non-blocking poll replies instantly with whatever state the job is
  // in; it never inherits the server's default wait timeout.
  const json::Value polled = server.handle_line(
      "{\"op\":\"wait\",\"job\":\"" + job + "\",\"nowait\":true}");
  ASSERT_TRUE(polled.at("ok").as_bool()) << polled.dump();
  EXPECT_TRUE(polled.find("state") != nullptr);

  const json::Value done = server.handle_line(
      "{\"op\":\"wait\",\"job\":\"" + job + "\",\"timeout_ms\":10000}");
  ASSERT_EQ(done.at("state").as_string(), "done") << done.dump();

  // watch over handle_line (no transport to stream over) still blocks
  // until the job settles and returns the final status, sans "event".
  const json::Value watched = server.handle_line(
      "{\"op\":\"watch\",\"job\":\"" + job + "\",\"every_ms\":5}");
  ASSERT_EQ(watched.at("state").as_string(), "done") << watched.dump();
  EXPECT_EQ(watched.find("event"), nullptr);

  const json::Value status = server.handle_line("{\"op\":\"status\"}");
  EXPECT_EQ(status.at("jobs").at("done").as_number(), 1.0);
  EXPECT_EQ(status.at("server").at("port").as_number(),
            static_cast<double>(server.port()));

  const json::Value metrics = server.handle_line("{\"op\":\"metrics\"}");
  EXPECT_TRUE(metrics.at("ok").as_bool());
  EXPECT_NE(metrics.at("text").as_string().find("serve_jobs_done 1"),
            std::string::npos)
      << metrics.at("text").as_string();

  // Identical submission: served from the cache with the result inline.
  const json::Value cached = server.handle_line(
      "{\"op\":\"submit\",\"kind\":\"selftest\","
      "\"params\":{\"sleep_ms\":1,\"tasks\":2}}");
  ASSERT_TRUE(cached.at("ok").as_bool());
  EXPECT_TRUE(cached.at("cached").as_bool());
  EXPECT_EQ(cached.at("result").dump(), done.at("result").dump());
}

TEST(Server, InvalidScenarioIsRejectedAtSubmit) {
  const std::string dir = tmp_path("serve_bad_spec");
  wipe_state_dir(dir);
  Server server(test_server_options(dir));
  const json::Value before = server.handle_line("{\"op\":\"status\"}");

  // A typo is a 400 at submit, with the CLI's near-miss suggestion — not
  // a job that fails serve_max_attempts times and is quarantined.
  const json::Value typo = server.handle_line(
      "{\"op\":\"submit\",\"kind\":\"simulate\","
      "\"params\":{\"level\":4,\"injecton\":0.1}}");
  EXPECT_FALSE(typo.at("ok").as_bool());
  EXPECT_EQ(typo.at("code").as_number(), kCodeBadRequest);
  EXPECT_NE(typo.at("error").as_string().find("did you mean 'injection'"),
            std::string::npos)
      << typo.dump();

  // A sweep is NoC-sprinting only, exactly like mode=sweep.
  const json::Value full = server.handle_line(
      "{\"op\":\"submit\",\"kind\":\"sweep\","
      "\"params\":{\"scheme\":\"full\"}}");
  EXPECT_FALSE(full.at("ok").as_bool());
  EXPECT_EQ(full.at("code").as_number(), kCodeBadRequest);

  // Neither became a job, and the ledger holds nothing new.
  const json::Value after = server.handle_line("{\"op\":\"status\"}");
  EXPECT_EQ(after.at("counters").at("submitted").as_number(), 0.0);
  EXPECT_EQ(after.at("jobs").dump(), before.at("jobs").dump());
  EXPECT_EQ(after.at("ledger").at("bytes").as_number(),
            before.at("ledger").at("bytes").as_number());
  EXPECT_EQ(server.handle_line("{\"op\":\"job\",\"job\":\"job-1\"}")
                .at("code")
                .as_number(),
            kCodeNotFound);
}

TEST(Scheduler, FaultedSweepMatchesTheCliScenarioRun) {
  // The daemon's sweep accepts the same fault keys as mode=sweep, and its
  // points are the CLI path's: Scenario tasks on the resumable driver.
  JobSpec spec;
  spec.kind = "sweep";
  spec.params.set("level", 8);
  spec.params.set("rates", "0.05:0.1:0.25");
  spec.params.set("faults", true);
  spec.params.set("fault_flip_rate", 1e-3);
  spec.params.set("watchdog", 20000);

  JobScheduler sched(fast_limits(), make_sim_runner(""),
                     make_sim_aggregator(), nullptr);
  const SubmitOutcome out = sched.submit(spec);
  ASSERT_EQ(out.code, SubmitOutcome::Code::kAccepted);
  const json::Value done = sched.wait(out.job_id);
  ASSERT_EQ(done.at("state").as_string(), "done") << done.dump();

  Config cfg;
  cfg.set("level", "8");
  cfg.set("rates", "0.05:0.1:0.25");
  cfg.set("faults", "true");
  cfg.set("fault_flip_rate", "1e-3");
  cfg.set("watchdog", "20000");
  const sprint::Scenario scenario = sprint::Scenario::from_config("sweep", cfg);
  cfg.reject_unknown();
  const std::vector<json::Value> points = noc::run_resumable(
      scenario.task_count(), 4, nullptr, nullptr,
      [&](std::size_t i) { return scenario.run_task(i, {}); });
  const json::Value direct = scenario.aggregate(points, "kind");
  EXPECT_EQ(done.at("result").at("points").dump(),
            direct.at("points").dump());
  EXPECT_EQ(done.at("result").dump(), direct.dump());
  EXPECT_GT(done.at("result")
                .at("points")
                .at(0)
                .at("counters")
                .at("flits_corrupted")
                .as_number(),
            0.0);
}

TEST(Server, ReopenedDaemonKeepsNoReplayedLedgerRecords) {
  // Recovery reads the replayed records once; the daemon must not keep
  // them for its whole life (they grow with the ledger it reopened).
  const std::string dir = tmp_path("serve_replay_memory");
  wipe_state_dir(dir);
  const std::string submit =
      "{\"op\":\"submit\",\"kind\":\"selftest\","
      "\"params\":{\"tasks\":3,\"sleep_ms\":1}}";
  std::string result;
  {
    Server server(test_server_options(dir));
    const json::Value submitted = server.handle_line(submit);
    ASSERT_TRUE(submitted.at("ok").as_bool()) << submitted.dump();
    const json::Value done = server.handle_line(
        "{\"op\":\"wait\",\"job\":\"" +
        submitted.at("job").as_string() + "\",\"timeout_ms\":10000}");
    ASSERT_EQ(done.at("state").as_string(), "done") << done.dump();
    result = done.at("result").dump();
  }
  Server server(test_server_options(dir));
  EXPECT_TRUE(server.ledger().replayed().empty());
  // Recovery still seeded the result cache from those records.
  const json::Value cached = server.handle_line(submit);
  ASSERT_TRUE(cached.at("ok").as_bool()) << cached.dump();
  EXPECT_TRUE(cached.at("cached").as_bool()) << cached.dump();
  EXPECT_EQ(cached.at("result").dump(), result);
}

TEST(Server, InterruptedCampaignResumesAcrossRestart) {
  const std::string dir = tmp_path("serve_restart");
  wipe_state_dir(dir);
  std::string job;
  {
    Server server(test_server_options(dir));
    const json::Value submitted = server.handle_line(
        "{\"op\":\"submit\",\"kind\":\"selftest\","
        "\"params\":{\"tasks\":8,\"sleep_ms\":100}}");
    ASSERT_TRUE(submitted.at("ok").as_bool()) << submitted.dump();
    job = submitted.at("job").as_string();
    // Drain immediately: most of the 8 tasks are still pending, running
    // ones cancel at the next poll.  The dtor tears the daemon down.
    server.scheduler().drain();
    const json::Value status = server.handle_line(
        "{\"op\":\"job\",\"job\":\"" + job + "\"}");
    EXPECT_NE(status.at("state").as_string(), "done");
  }
  {
    Server server(test_server_options(dir));
    EXPECT_GE(server.scheduler().recovered_jobs(), 1u);
    const json::Value done = server.handle_line(
        "{\"op\":\"wait\",\"job\":\"" + job + "\",\"timeout_ms\":20000}");
    ASSERT_EQ(done.at("state").as_string(), "done") << done.dump();
    EXPECT_EQ(done.at("result").at("tasks").size(), 8u);
  }
}

}  // namespace
}  // namespace nocs::serve
