// Copyright 2026 the ustdb authors.
//
// perfbench — the ustdb service benchmark binary. One invocation runs one
// workload against a 4-shard QueryService and prints a human-readable
// report followed by one JSON line holding every metric it measured, the
// run's provenance (obs::CommonMeta() plus the seed) and its attempt and
// failure counts. Any failed answer check or engagement guard exits 1
// before anything is printed on stdout.
//
//   perfbench --workload dashboard_warm|alerts_cold|ingest_subscribe
//             --seed N --seconds S --trace 0|1 [--out DIR]
//
// perfbench/run.py builds this binary and turns its JSON line into the
// benchmark's result line.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace ustdb::perfbench;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

RunOptions Parse(int argc, char** argv) {
  RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fail("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") Fail("--trace takes 0 or 1");
    } else if (flag == "--out") {
      o.out_dir = value;
    } else {
      Fail("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') Fail("bad value for " + flag);
  }
  if (!have_workload) Fail("--workload is required");
  if (!(o.seconds > 0.0)) Fail("--seconds must be positive");
  return o;
}

/// Keeps every hardware thread busy for `seconds`. On the virtualized
/// 4-core host the benchmark was tuned on, the first few seconds of load
/// after an idle period ran up to 3x slower (open-loop p99 up to 40x), and
/// 2 s of warm-up was not enough to hide it; each run spends 5 s here
/// rather than in a measured phase.
void WarmHost(double seconds) {
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency());
       ++i) {
    threads.emplace_back([stop] {
      volatile double x = 1.0;
      while (Clock::now() < stop) {
        for (int k = 0; k < 1000; ++k) x = x * 1.0000001 + 1e-9;
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions options = Parse(argc, argv);
  WarmHost(5.0);
  Report report;
  Counts counts;
  if (options.workload == "dashboard_warm") {
    counts = RunDashboardWarm(options, &report);
  } else if (options.workload == "alerts_cold") {
    counts = RunAlertsCold(options, &report);
  } else if (options.workload == "ingest_subscribe") {
    counts = RunIngestSubscribe(options, &report);
  } else {
    Fail("unknown workload " + options.workload);
  }
  report.Add("rss_mb", PeakRssMb(), "MB");

  // Every check passed: print the report, then the machine-readable line.
  std::printf("workload %s seed %llu trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  for (const std::string& note : report.notes()) {
    std::printf("  note  %s\n", note.c_str());
  }
  for (const Metric& m : report.metrics()) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string meta = "{\"seed\":" + std::to_string(options.seed);
  for (const auto& [key, value] : ustdb::obs::CommonMeta()) {
    meta += ',';
    meta += JsonString(key);
    meta += ':';
    meta += JsonString(value);
  }
  meta += "}";
  std::string metrics = "{";
  for (const Metric& m : report.metrics()) {
    if (metrics.size() > 1) metrics += ',';
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += JsonString(m.name);
    metrics += ":{\"value\":";
    metrics += value;
    metrics += ",\"unit\":";
    metrics += JsonString(m.unit);
    metrics += '}';
  }
  metrics += "}";
  std::printf(
      "{\"workload\":%s,\"trace\":%d,\"meta\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"metrics\":%s}\n",
      JsonString(options.workload).c_str(), options.trace ? 1 : 0,
      meta.c_str(), static_cast<unsigned long long>(counts.attempted),
      static_cast<unsigned long long>(counts.failed), metrics.c_str());
  return 0;
}
