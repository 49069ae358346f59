// Shared helpers for the figure-regeneration benches.
//
// Every bench binary regenerates one table/figure of the paper: it prints
// the Table 1 configuration banner, the reproduced rows, and the headline
// aggregate the paper quotes, so `for b in build/bench/*; do $b; done`
// emits a complete experiment log.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "noc/params.hpp"

namespace nocs::bench {

/// Writes a flat {"name": value, ...} JSON object — the machine-readable
/// summary (e.g. BENCH_noc.json) perf-tracking scripts diff across
/// commits — led by a "host" member when `host` is an object (where and
/// how the numbers were measured).  Returns false (after logging) when the
/// file cannot be opened.
inline bool write_bench_json(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& metrics,
    const json::Value& host = json::Value()) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  if (host.is_object())
    std::fprintf(f, "  \"host\": %s%s\n", host.dump().c_str(),
                 metrics.empty() ? "" : ",");
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::fprintf(f, "  \"%s\": %.6g%s\n", metrics[i].first.c_str(),
                 metrics[i].second, i + 1 < metrics.size() ? "," : "");
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// Merges flat metrics into an existing BENCH-style JSON file: loads the
/// current {"name": value} object if the file exists and parses (anything
/// else starts fresh), overwrites the given keys, and rewrites the file,
/// keeping its "host" member.  Lets several bench binaries contribute to
/// one BENCH_noc.json without clobbering each other's keys.
inline bool merge_bench_json(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& metrics) {
  std::vector<std::pair<std::string, double>> merged;
  json::Value host;
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
    try {
      const json::Value v = json::Value::parse(text);
      if (v.is_object())
        for (const auto& [key, val] : v.members()) {
          if (val.is_number()) merged.emplace_back(key, val.as_number());
          if (key == "host" && val.is_object()) host = val;
        }
    } catch (const std::invalid_argument&) {
      // Unparseable previous contents: rewrite from scratch.
    }
  }
  for (const auto& [key, val] : metrics) {
    bool found = false;
    for (auto& m : merged)
      if (m.first == key) {
        m.second = val;
        found = true;
        break;
      }
    if (!found) merged.emplace_back(key, val);
  }
  return write_bench_json(path, merged, host);
}

/// Parses key=value overrides from argv, tolerating none.
inline Config parse_config(int argc, char** argv) {
  return Config::from_args(argc, argv);
}

/// Writes a structured run report to the path given by the `report=`
/// config key; a silent no-op when the key is unset.  The standard way
/// for a bench to expose its table as machine-readable JSON.
inline bool maybe_write_report(const Config& cfg, json::Value doc) {
  const std::string path = cfg.get_string("report", "");
  if (path.empty()) return false;
  if (!json::write_file(path, doc)) return false;
  std::printf("report written to %s\n", path.c_str());
  return true;
}

/// Serializes the Table 1 network configuration (for report headers).
inline json::Value to_json(const noc::NetworkParams& p) {
  json::Value o = json::Value::object();
  o.set("width", p.width);
  o.set("height", p.height);
  o.set("num_vcs", p.num_vcs);
  o.set("vc_depth", p.vc_depth);
  o.set("packet_length", p.packet_length);
  o.set("flit_bytes", p.flit_bytes);
  return o;
}

/// Builds the Table 1 network configuration with optional overrides
/// (width, height, num_vcs, vc_depth, packet_length, flit_bytes).
inline noc::NetworkParams network_params(const Config& cfg) {
  noc::NetworkParams p;
  p.width = static_cast<int>(cfg.get_int("width", p.width));
  p.height = static_cast<int>(cfg.get_int("height", p.height));
  p.num_vcs = static_cast<int>(cfg.get_int("num_vcs", p.num_vcs));
  p.vc_depth = static_cast<int>(cfg.get_int("vc_depth", p.vc_depth));
  p.packet_length =
      static_cast<int>(cfg.get_int("packet_length", p.packet_length));
  p.flit_bytes = static_cast<int>(cfg.get_int("flit_bytes", p.flit_bytes));
  p.validate();
  return p;
}

/// Prints the experiment banner: which figure, what configuration.
inline void banner(const char* experiment, const char* summary,
                   const noc::NetworkParams& p) {
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", experiment, summary);
  std::printf(
      "config: %dx%d mesh, %d VCs x %d flits, %d-flit packets, %d-byte "
      "flits (Table 1)\n",
      p.width, p.height, p.num_vcs, p.vc_depth, p.packet_length,
      p.flit_bytes);
  std::printf("==============================================================\n");
}

/// Prints a "paper vs measured" headline line.
inline void headline(const std::string& what, const std::string& paper,
                     const std::string& measured) {
  std::printf("\n>> %s: paper = %s, measured = %s\n", what.c_str(),
              paper.c_str(), measured.c_str());
}

}  // namespace nocs::bench
