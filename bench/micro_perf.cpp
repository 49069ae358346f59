// Micro-benchmarks (google-benchmark): raw speed of the simulator and the
// paper's algorithms.  Not a paper figure — engineering data for users
// sizing their own sweeps.
//
// The custom main() additionally times the headline throughput numbers
// outside google-benchmark and writes them to BENCH_noc.json (flat
// name -> value JSON, led by the host it was measured on) so perf
// regressions are diffable across commits.
//
// Tick benchmarks run at stated loads: uniform traffic at about half of
// each mesh's measured saturation knee (perfbench's mesh8_uniform and
// mesh32_sharded operating points), plus one explicitly named overload
// case above the 32x32 knee, and a serial ns-per-flit-hop curve over mesh
// sides 8-32 at load 0.03.  The tile-transfer benchmark is fig13's
// closed loop at one sprint level: mostly idle barrier cycles, the
// network's quiescence path.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "cmp/perf_model.hpp"
#include "common/rng.hpp"
#include "mem/mem_subsystem.hpp"
#include "mem/tile_driver.hpp"
#include "noc/parallel_sweep.hpp"
#include "noc/simulator.hpp"
#include "sprint/cdor.hpp"
#include "sprint/floorplanner.hpp"
#include "sprint/network_builder.hpp"
#include "sprint/topology.hpp"
#include "thermal/grid.hpp"

using namespace nocs;

namespace {

/// Uniform loads at ~49% of the 8x8 knee (0.365) and ~48% of the 32x32
/// knee (0.115), as measured by `perfbench/run.py --calibrate`.
constexpr double kLoad8x8 = 0.18;
constexpr double kLoad32x32 = 0.055;
/// Deliberate overload: above the 32x32 knee the NI source queues grow
/// for as long as the run lasts.
constexpr double kOverloadLoad = 0.2;

/// The stated load of a side x side tick benchmark (8 or 32).
double stated_load(int side) { return side == 8 ? kLoad8x8 : kLoad32x32; }

/// BENCH key prefix naming a mesh and its load, e.g. "tick_8x8_load0.18".
std::string tick_key(const char* prefix, int side, double load) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s_%dx%d_load%g", prefix, side, side, load);
  return buf;
}

/// Builds the standard tick-benchmark network: side x side mesh, every
/// node an endpoint, uniform traffic at `rate` flits/cycle, pipelines warm.
std::unique_ptr<noc::Network> make_tick_network(
    int side, double rate, const noc::RoutingPolicy* policy) {
  noc::NetworkParams p;
  p.width = side;
  p.height = side;
  auto net = std::make_unique<noc::Network>(p, policy);
  std::vector<NodeId> all;
  for (int i = 0; i < p.num_nodes(); ++i) all.push_back(i);
  net->set_endpoints(all, noc::make_traffic("uniform", p.num_nodes()));
  net->set_injection_rate(rate);
  net->set_seed(1);
  net->run(1000);  // warm the pipelines
  return net;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// fig13's DRAM-bound closed loop at sprint level 8 on an 8x8 mesh: 4 edge
/// controllers, 4 tile groups, tree multicast, the example schedule, run
/// to completion on `sim_threads` shards.  Returns the simulated cycles.
/// `window_rates`, when given, receives the cycles per second of each
/// successive `window`-cycle slice of the run (the last may be shorter).
Cycle run_tile_transfer(int sim_threads, Cycle window = 0,
                        std::vector<double>* window_rates = nullptr) {
  noc::NetworkParams p;
  p.width = 8;
  p.height = 8;
  p.num_classes = 2;  // requests and replies on separate classes
  const noc::XyRouting xy;
  noc::Network net(p, &xy);
  net.set_sim_threads(sim_threads);
  mem::MemParams mp;
  mp.ctrls = 4;
  const MeshShape shape = p.shape();
  const std::vector<NodeId> active = sprint::active_set(shape, 8);
  net.gate_dark_region(mem::powered_closure(
      shape, active, mem::controller_sites(shape, mp.ctrls, mp.placement)));
  mem::MemSubsystem mem_sys(net, mp);
  mem::TileTransferDriver driver(net, mem_sys, mem::TileSchedule::example(),
                                 mem::partition_groups(active, 4),
                                 {.multicast = true, .chunk_flits = 0});
  driver.install();
  auto t0 = std::chrono::steady_clock::now();
  Cycle start = net.now();
  while (!driver.done() && net.now() < 2'000'000) {
    net.tick();
    if (window_rates != nullptr &&
        (net.now() - start == window || driver.done())) {
      window_rates->push_back(static_cast<double>(net.now() - start) /
                              seconds_since(t0));
      t0 = std::chrono::steady_clock::now();
      start = net.now();
    }
  }
  driver.uninstall();
  NOCS_ENSURES(driver.done());
  return net.now();
}

}  // namespace

static void BM_NetworkTick(benchmark::State& state) {
  noc::XyRouting xy;
  const int side = static_cast<int>(state.range(0));
  auto net = make_tick_network(side, stated_load(side), &xy);
  for (auto _ : state) net->tick();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(net->num_nodes()));
}
BENCHMARK(BM_NetworkTick)->Arg(8);

// Sharded barrier-synchronous tick: same network as BM_NetworkTick but
// with tick() partitioned into node-id-range shards on sim_threads threads.
// Results are bit-identical to serial; this measures the wall-clock win.
static void BM_NetworkTickSharded(benchmark::State& state) {
  noc::XyRouting xy;
  const int side = static_cast<int>(state.range(0));
  auto net = make_tick_network(side, stated_load(side), &xy);
  net->set_sim_threads(static_cast<int>(state.range(1)));
  for (auto _ : state) net->tick();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(net->num_nodes()));
}
BENCHMARK(BM_NetworkTickSharded)
    ->Args({8, 1})
    ->Args({8, 4})
    ->Args({32, 1})
    ->Args({32, 4})
    ->Args({32, 8});

// The jammed regime, named as such: 32x32 at 0.2, above its knee.  Per-tick
// cost here grows with the NI backlog, so it is not a throughput figure.
static void BM_NetworkTickOverload(benchmark::State& state) {
  noc::XyRouting xy;
  auto net = make_tick_network(32, kOverloadLoad, &xy);
  for (auto _ : state) net->tick();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(net->num_nodes()));
}
BENCHMARK(BM_NetworkTickOverload);

// Sprint level 4 of 16: a 2x2 active region, 12 routers dark.  The
// active-router fast path should make the dark region's tick cost ~zero,
// so per-router cost lands far below BM_NetworkTick's.
static void BM_NetworkTickGated(benchmark::State& state) {
  noc::NetworkParams p;
  p.width = 4;
  p.height = 4;
  sprint::NetworkBundle b =
      sprint::make_noc_sprinting_network(p, 4, "uniform", 1);
  b.network->set_injection_rate(0.2);
  b.network->run(1000);
  for (auto _ : state) b.network->tick();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.num_nodes()));
}
BENCHMARK(BM_NetworkTickGated);

// One full fig13 tile transfer per iteration; reports simulated cycles/s.
static void BM_TileTransfer(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Cycle cycles = 0;
  for (auto _ : state) cycles += run_tile_transfer(threads);
  state.counters["cycles_per_sec"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TileTransfer)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

namespace {

/// The pre-ring VcBuffer implementation, kept here as the comparison
/// baseline for BM_VcBufferRing (std::deque allocates/frees chunks as flits
/// stream through, which is what the ring rewrite removed).
class DequeVcBuffer {
 public:
  explicit DequeVcBuffer(int capacity) : capacity_(capacity) {}
  bool empty() const { return q_.empty(); }
  bool full() const { return static_cast<int>(q_.size()) >= capacity_; }
  void push(const noc::Flit& f) { q_.push_back(f); }
  const noc::Flit& front() const { return q_.front(); }
  noc::Flit pop() {
    noc::Flit f = q_.front();
    q_.pop_front();
    return f;
  }

 private:
  int capacity_;
  std::deque<noc::Flit> q_;
};

/// Streams 4-flit bursts through `buf`, an empty buffer of capacity 4:
/// `fill(buf, f)` stores one burst, then the loop drains it.
template <typename Buffer, typename Fill>
void run_buffer_benchmark(benchmark::State& state, Buffer& buf, Fill fill) {
  noc::Flit f;
  f.record = 42;
  std::int64_t items = 0;
  for (auto _ : state) {
    fill(buf, f);
    while (!buf.empty()) benchmark::DoNotOptimize(buf.pop());
    items += 4;
  }
  state.SetItemsProcessed(items);
}

}  // namespace

// The router's path: the sender writes each flit at its tail index into
// the reserved slot, the link's arrival accepts it, switch traversal pops.
static void BM_VcBufferRing(benchmark::State& state) {
  noc::Flit slots[4];
  noc::VcBuffer buf(slots, 4);
  run_buffer_benchmark(state, buf, [](noc::VcBuffer& b, noc::Flit& f) {
    for (int i = 0; i < 4; ++i) {
      f.index = static_cast<std::int16_t>(i);
      b.storage()[b.tail(i)] = f;
    }
    for (int i = 0; i < 4; ++i) benchmark::DoNotOptimize(b.accept());
  });
}
BENCHMARK(BM_VcBufferRing);

static void BM_VcBufferDeque(benchmark::State& state) {
  DequeVcBuffer buf(4);
  run_buffer_benchmark(state, buf, [](DequeVcBuffer& b, noc::Flit& f) {
    for (int i = 0; i < 4; ++i) {
      f.index = static_cast<std::int16_t>(i);
      b.push(f);
    }
  });
}
BENCHMARK(BM_VcBufferDeque);

static void BM_SprintOrder(benchmark::State& state) {
  const MeshShape mesh(static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(sprint::sprint_order(mesh, 0));
}
BENCHMARK(BM_SprintOrder)->Arg(4)->Arg(16);

static void BM_CdorRoute(benchmark::State& state) {
  const MeshShape mesh(4, 4);
  const noc::Topology topo = noc::Topology::mesh(4, 4);
  const sprint::CdorRouting cdor(mesh, sprint::active_set(mesh, 8, 0), 0);
  int i = 0;
  const auto& act = cdor.active_nodes();
  for (auto _ : state) {
    const NodeId a = act[static_cast<std::size_t>(i % 8)];
    const NodeId b = act[static_cast<std::size_t>((i + 3) % 8)];
    benchmark::DoNotOptimize(cdor.route_port(topo, a, b));
    ++i;
  }
}
BENCHMARK(BM_CdorRoute);

static void BM_Floorplan(benchmark::State& state) {
  const MeshShape mesh(static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(sprint::thermal_aware_floorplan(mesh, 0));
}
BENCHMARK(BM_Floorplan)->Arg(4)->Arg(8);

static void BM_ThermalSteady(benchmark::State& state) {
  const MeshShape mesh(4, 4);
  thermal::GridThermalParams gp;
  const thermal::GridThermalModel model(gp, 12.0, 12.0);
  std::vector<Watts> powers(16, 1.0);
  powers[0] = 5.0;
  const thermal::Floorplan fp = thermal::make_cmp_floorplan(
      mesh, 12.0, 12.0, powers, thermal::identity_positions(16));
  for (auto _ : state) benchmark::DoNotOptimize(model.solve_steady(fp));
}
BENCHMARK(BM_ThermalSteady);

static void BM_CalibrateSuite(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(cmp::parsec_suite(16));
}
BENCHMARK(BM_CalibrateSuite);

namespace {

/// Ticks `net` for `n` cycles and returns ticks per second.
double measure_ticks_per_sec(noc::Network& net, Cycle n) {
  const auto t0 = std::chrono::steady_clock::now();
  net.run(n);
  return static_cast<double>(n) / seconds_since(t0);
}

/// A sharded key is the median of kWindows timing windows that together
/// spend the key's cycle budget, so one descheduled shard worker costs
/// one window, not the whole reading.
constexpr int kWindows = 5;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// measure_ticks_per_sec over kWindows windows of n / kWindows cycles;
/// returns the median window's rate.
double median_ticks_per_sec(noc::Network& net, Cycle n) {
  std::vector<double> rates;
  for (int w = 0; w < kWindows; ++w)
    rates.push_back(measure_ticks_per_sec(net, n / kWindows));
  return median(rates);
}

/// Times a small fig11-style injection sweep (fresh 4x4 sprint network per
/// point) at the given worker count; returns wall-clock seconds.
double measure_sweep_seconds(int threads) {
  const std::vector<double> rates = {0.05, 0.10, 0.15, 0.20, 0.25, 0.30,
                                     0.35, 0.40};
  noc::NetworkParams p;
  p.width = 4;
  p.height = 4;
  noc::SimConfig sim;
  sim.warmup = 500;
  sim.measure = 4000;
  const auto t0 = std::chrono::steady_clock::now();
  const auto points = noc::run_resumable(
      rates.size(), threads, nullptr, nullptr, [&](std::size_t i) {
        sprint::NetworkBundle b = sprint::make_noc_sprinting_network(
            p, 8, "uniform", task_seed(/*base_seed=*/11, i));
        noc::SimConfig point_sim = sim;
        point_sim.injection_rate = rates[i];
        return noc::to_json(noc::run_simulation(*b.network, point_sim));
      });
  benchmark::DoNotOptimize(points);
  return seconds_since(t0);
}

/// `git describe` of the source tree this binary was built from, or
/// "none" outside a git checkout.
std::string git_describe() {
  std::string out;
  if (std::FILE* p = ::popen("git -C '" NOCS_BENCH_SOURCE_DIR
                             "' describe --always --dirty 2>/dev/null",
                             "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
    ::pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out.empty() ? "none" : out;
}

/// Where and how BENCH_noc.json's numbers were measured.
json::Value host_metadata() {
  json::Value host = json::Value::object();
  host.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  host.set("build_type", NOCS_BENCH_BUILD_TYPE);
  host.set("compiler", NOCS_BENCH_COMPILER);
  host.set("git_describe", git_describe());
  return host;
}

/// Headline metrics for BENCH_noc.json, measured outside google-benchmark
/// (simple wall-clock timing is enough for the cross-commit diff).  With
/// NOCS_BENCH_FAST set (the CI bench job), cycle budgets shrink 10x: the
/// numbers get noisier but the whole emit stays under a minute.
void emit_bench_json() {
  const Cycle div = std::getenv("NOCS_BENCH_FAST") != nullptr ? 10 : 1;
  std::vector<std::pair<std::string, double>> metrics;

  noc::XyRouting xy;
  auto full = make_tick_network(8, kLoad8x8, &xy);
  metrics.emplace_back(tick_key("network_tick", 8, kLoad8x8) + "_ticks_per_sec",
                       measure_ticks_per_sec(*full, 200000 / div));

  noc::NetworkParams p4;
  p4.width = 4;
  p4.height = 4;
  sprint::NetworkBundle gated =
      sprint::make_noc_sprinting_network(p4, 4, "uniform", 1);
  gated.network->set_injection_rate(0.2);
  gated.network->run(1000);
  metrics.emplace_back("network_tick_gated_4of16_ticks_per_sec",
                       measure_ticks_per_sec(*gated.network, 2000000 / div));

  // Sharded-tick speedup curve at the stated loads: ticks/sec for each
  // mesh size x thread count, plus the headline 32x32 speedups relative to
  // serial.  Cycle budgets shrink with mesh size so the whole curve stays
  // a few seconds.
  {
    noc::XyRouting curve_xy;
    const struct { int side; Cycle cycles; } meshes[] = {{8, 100000},
                                                         {32, 8000}};
    for (const auto& m : meshes) {
      const std::string mesh = tick_key("tick", m.side, stated_load(m.side));
      double serial_tps = 0.0;
      for (const int t : {1, 2, 4, 8}) {
        auto net = make_tick_network(m.side, stated_load(m.side), &curve_xy);
        net->set_sim_threads(t);
        const double tps =
            t == 1 ? measure_ticks_per_sec(*net, m.cycles / div)
                   : median_ticks_per_sec(*net, m.cycles / div);
        if (t == 1) serial_tps = tps;
        metrics.emplace_back(
            mesh + "_t" + std::to_string(t) + "_ticks_per_sec", tps);
        if (m.side == 32 && t > 1)
          metrics.emplace_back(mesh + "_speedup_t" + std::to_string(t),
                               serial_tps > 0 ? tps / serial_tps : 0.0);
      }
    }
    // Two 2-shard 32x32 networks ticking at once on two threads of one
    // process: what a shard team costs when it does not have the host to
    // itself.  Ticks/sec per network over the pair's wall time, median of
    // kWindows windows.
    {
      std::unique_ptr<noc::Network> pair[2];
      for (auto& net : pair) {
        net = make_tick_network(32, kLoad32x32, &curve_xy);
        net->set_sim_threads(2);
      }
      const Cycle n = 8000 / div / kWindows;
      std::vector<double> rates;
      for (int w = 0; w < kWindows; ++w) {
        const auto t0 = std::chrono::steady_clock::now();
        std::thread other([&] { pair[1]->run(n); });
        pair[0]->run(n);
        other.join();
        rates.push_back(static_cast<double>(n) / seconds_since(t0));
      }
      metrics.emplace_back(
          tick_key("tick", 32, kLoad32x32) + "_t2_x2_ticks_per_sec",
          median(rates));
    }
    auto jammed = make_tick_network(32, kOverloadLoad, &curve_xy);
    metrics.emplace_back(
        tick_key("tick_overload", 32, kOverloadLoad) + "_t1_ticks_per_sec",
        measure_ticks_per_sec(*jammed, 3000 / div));
  }

  // Serial host cost per flit-hop (crossbar traversal) against mesh side
  // at a light load, so the curve shows where the state one tick touches
  // outgrows the core's caches.
  {
    noc::XyRouting hop_xy;
    constexpr double kHopLoad = 0.03;
    const struct { int side; Cycle cycles; } meshes[] = {
        {8, 40000}, {16, 10000}, {24, 5000}, {32, 3000}};
    for (const auto& m : meshes) {
      auto net = make_tick_network(m.side, kHopLoad, &hop_xy);
      const std::uint64_t before = net->total_counters().xbar_traversals;
      const auto t0 = std::chrono::steady_clock::now();
      net->run(m.cycles / div);
      const double s = seconds_since(t0);
      const std::uint64_t hops =
          net->total_counters().xbar_traversals - before;
      metrics.emplace_back(
          tick_key("ns_per_flit_hop", m.side, kHopLoad) + "_t1",
          hops > 0 ? s * 1e9 / static_cast<double>(hops) : 0.0);
    }
  }

  // Closed-loop tile transfer (one full run per thread count; a run is a
  // fixed workload, so NOCS_BENCH_FAST does not shrink it).  The serial
  // key times the whole run, setup included; the sharded one is the
  // median of kWindows slices of its ticks (runs are bit-identical, so
  // the serial run's length sizes them).
  {
    const auto t0 = std::chrono::steady_clock::now();
    const Cycle cycles = run_tile_transfer(1);
    metrics.emplace_back("tile_transfer_8x8_level8_t1_cycles_per_sec",
                         static_cast<double>(cycles) / seconds_since(t0));
    std::vector<double> rates;
    run_tile_transfer(4, (cycles + kWindows - 1) / kWindows, &rates);
    metrics.emplace_back("tile_transfer_8x8_level8_t4_cycles_per_sec",
                         median(rates));
  }

  const double serial = measure_sweep_seconds(1);
  const double parallel = measure_sweep_seconds(4);
  metrics.emplace_back("sweep_8pt_serial_seconds", serial);
  metrics.emplace_back("sweep_8pt_4threads_seconds", parallel);
  metrics.emplace_back("sweep_4thread_speedup",
                       parallel > 0 ? serial / parallel : 0.0);

  bench::write_bench_json("BENCH_noc.json", metrics, host_metadata());
  const std::string speedup32_t4_key =
      tick_key("tick", 32, kLoad32x32) + "_speedup_t4";
  double speedup32_t4 = 0.0, sweep_speedup = 0.0;
  for (const auto& [name, value] : metrics) {
    if (name == speedup32_t4_key) speedup32_t4 = value;
    if (name == "sweep_4thread_speedup") sweep_speedup = value;
  }
  std::printf("wrote BENCH_noc.json (8x8@0.18 %.3g ticks/s, "
              "gated %.3g ticks/s, "
              "32x32 sharded-tick speedup %.2fx @4 threads, "
              "4-thread sweep speedup %.2fx)\n",
              metrics[0].second, metrics[1].second, speedup32_t4,
              sweep_speedup);
}

}  // namespace

// The BENCH_noc.json suite takes about a minute and overwrites
// ./BENCH_noc.json, so a filter naming cases times only those cases and
// --benchmark_list_tests only lists them; the suite runs without a
// filter, or with one that selects no case ('^$').
int main(int argc, char** argv) {
  const auto given = [&](const char* flag) {
    return std::any_of(argv + 1, argv + argc, [flag](const char* a) {
      return std::string(a).starts_with(flag);
    });
  };
  const bool filtered = given("--benchmark_filter");
  const bool listing = given("--benchmark_list_tests") &&
                       !given("--benchmark_list_tests=false");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!listing && (!filtered || ran == 0)) emit_bench_json();
  return 0;
}
