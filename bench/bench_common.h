// Shared infrastructure for the paper-reproduction benchmarks.
//
// Every bench binary uses google-benchmark for execution/timing and, on top
// of that, records one (series, x, value) triple per sweep point so that
// after the run it can print the figure's series exactly the way the paper
// plots them (x column + one column per algorithm) and write
// bench/out/<figure>.csv for downstream plotting.

#ifndef USTDB_BENCH_BENCH_COMMON_H_
#define USTDB_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/shard_router.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace ustdb {
namespace benchutil {

/// Collects series points and renders the paper-style table + CSV.
class Recorder {
 public:
  static Recorder& Instance() {
    static Recorder instance;
    return instance;
  }

  /// Records the value of `series` at sweep position `x`. Re-recording the
  /// same point overwrites (google-benchmark may re-run an iteration).
  void Record(const std::string& series, double x, double value) {
    data_[series][x] = value;
    if (std::find(series_order_.begin(), series_order_.end(), series) ==
        series_order_.end()) {
      series_order_.push_back(series);
    }
  }

  /// \brief Attaches a (key, value) annotation to the run — e.g. the
  /// kernel ISA the dispatcher selected. Meta entries are emitted as a
  /// top-level "meta" object in WriteJson output and printed with the
  /// table; baseline checkers ignore keys they do not know.
  void SetMeta(const std::string& key, const std::string& value) {
    meta_[key] = value;
  }

  /// \brief Merges the shared environment meta block (obs::CommonMeta:
  /// host, nproc, active kernel ISA, USTDB_SHARDS, git sha, UTC
  /// timestamp) into this run's annotations without overwriting keys a
  /// bench set explicitly. Called by RunBenchMain so every BENCH_*.json
  /// and every metrics snapshot share one meta schema.
  void SetDefaultMeta() {
    for (const auto& [key, value] : obs::CommonMeta()) {
      meta_.emplace(key, value);
    }
  }

  /// Last recorded value of (series, x); 0 when the point is absent.
  double Get(const std::string& series, double x) const {
    auto it = data_.find(series);
    if (it == data_.end()) return 0.0;
    auto jt = it->second.find(x);
    return jt == it->second.end() ? 0.0 : jt->second;
  }

  /// Prints the pivot table to stdout and writes bench/out/<name>.csv.
  /// \param x_label  column header for the sweep variable.
  /// \param value_label unit note shown in the header (e.g. "runtime [s]").
  void PrintAndWrite(const std::string& name, const std::string& x_label,
                     const std::string& value_label) const {
    // Collect the union of x positions.
    std::vector<double> xs;
    for (const auto& [series, points] : data_) {
      for (const auto& [x, v] : points) {
        if (std::find(xs.begin(), xs.end(), x) == xs.end()) xs.push_back(x);
      }
    }
    std::sort(xs.begin(), xs.end());

    std::printf("\n=== %s (%s) ===\n", name.c_str(), value_label.c_str());
    for (const auto& [key, value] : meta_) {
      std::printf("%s: %s\n", key.c_str(), value.c_str());
    }
    std::printf("%14s", x_label.c_str());
    for (const auto& s : series_order_) std::printf(" %14s", s.c_str());
    std::printf("\n");
    for (double x : xs) {
      std::printf("%14g", x);
      for (const auto& s : series_order_) {
        const auto& points = data_.at(s);
        auto it = points.find(x);
        if (it == points.end()) {
          std::printf(" %14s", "-");
        } else {
          std::printf(" %14.6g", it->second);
        }
      }
      std::printf("\n");
    }

    std::filesystem::create_directories("bench/out");
    const std::string path = "bench/out/" + name + ".csv";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "%s", x_label.c_str());
    for (const auto& s : series_order_) std::fprintf(f, ",%s", s.c_str());
    std::fprintf(f, "\n");
    for (double x : xs) {
      std::fprintf(f, "%g", x);
      for (const auto& s : series_order_) {
        const auto& points = data_.at(s);
        auto it = points.find(x);
        if (it == points.end()) {
          std::fprintf(f, ",");
        } else {
          std::fprintf(f, ",%.9g", it->second);
        }
      }
      std::fprintf(f, "\n");
    }
    std::fclose(f);
    std::printf("written: %s\n", path.c_str());
  }

  /// \brief Writes the recorded series as machine-readable JSON so the
  /// perf trajectory of a PR can be captured as a BENCH_*.json artifact
  /// and diffed against a checked-in baseline (see
  /// bench/check_perf_baseline.py). Schema:
  /// { "name": ..., "x_label": ..., "value_label": ...,
  ///   "series": { series: { x-as-string: value } } }.
  void WriteJson(const std::string& path, const std::string& name,
                 const std::string& x_label,
                 const std::string& value_label) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"name\": \"%s\",\n  \"x_label\": \"%s\",\n",
                 name.c_str(), x_label.c_str());
    std::fprintf(f, "  \"value_label\": \"%s\",\n", value_label.c_str());
    if (!meta_.empty()) {
      std::fprintf(f, "  \"meta\": {");
      bool first_meta = true;
      for (const auto& [key, value] : meta_) {
        std::fprintf(f, "%s\n    \"%s\": \"%s\"", first_meta ? "" : ",",
                     key.c_str(), value.c_str());
        first_meta = false;
      }
      std::fprintf(f, "\n  },\n");
    }
    std::fprintf(f, "  \"series\": {");
    bool first_series = true;
    for (const auto& s : series_order_) {
      std::fprintf(f, "%s\n    \"%s\": {", first_series ? "" : ",",
                   s.c_str());
      first_series = false;
      bool first_point = true;
      for (const auto& [x, v] : data_.at(s)) {
        std::fprintf(f, "%s\n      \"%g\": %.17g", first_point ? "" : ",",
                     x, v);
        first_point = false;
      }
      std::fprintf(f, "\n    }");
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("written: %s\n", path.c_str());
  }

 private:
  Recorder() = default;
  std::map<std::string, std::map<double, double>> data_;
  std::vector<std::string> series_order_;
  std::map<std::string, std::string> meta_;
};

/// Runs `body` once per benchmark iteration under manual timing and records
/// the last iteration's wall time for series `series` at `x`.
template <typename Body>
void TimedIterations(benchmark::State& state, const std::string& series,
                     double x, Body&& body) {
  double seconds = 0.0;
  for (auto _ : state) {
    util::Stopwatch sw;
    body();
    seconds = sw.ElapsedSeconds();
    state.SetIterationTime(seconds);
  }
  Recorder::Instance().Record(series, x, seconds);
}

/// \brief Loads a generated Database into a one-shard ShardedDatabase, the
/// form a QueryService serves: same chains and objects, same ids.
inline core::ShardedDatabase LoadOneShard(const core::Database& db) {
  core::ShardedDatabase one(core::ShardingOptions{.num_shards = 1});
  for (ChainId c = 0; c < db.num_chains(); ++c) {
    one.AddChain(markov::MarkovChain(db.chain(c)));
  }
  for (ObjectId id = 0; id < db.num_objects(); ++id) {
    const core::UncertainObject& object = db.object(id);
    (void)one.AddObject(object.chain, object.observations).ValueOrDie();
  }
  return one;
}

/// Removes `flag` from argv if present; returns whether it was there.
inline bool ExtractFlag(int* argc, char** argv, const std::string& flag) {
  for (int i = 1; i < *argc; ++i) {
    if (argv[i] == flag) {
      for (int j = i; j + 1 < *argc; ++j) argv[j] = argv[j + 1];
      --*argc;
      return true;
    }
  }
  return false;
}

/// Removes `flag <value>` from argv if present; returns the value, or ""
/// when the flag is absent (or has no value following it).
inline std::string ExtractOption(int* argc, char** argv,
                                 const std::string& flag) {
  for (int i = 1; i + 1 < *argc; ++i) {
    if (argv[i] == flag) {
      std::string value = argv[i + 1];
      for (int j = i; j + 2 < *argc; ++j) argv[j] = argv[j + 2];
      *argc -= 2;
      return value;
    }
  }
  return std::string();
}

/// \brief Standard main body: initialize google-benchmark, run, print the
/// figure. Every bench accepts `--json <path>` to additionally emit the
/// recorded series as machine-readable JSON (Recorder::WriteJson), so CI
/// and the per-PR perf trajectory can consume BENCH_*.json files instead
/// of scraping stdout.
inline int RunBenchMain(int argc, char** argv, const std::string& fig_name,
                        const std::string& x_label,
                        const std::string& value_label) {
  const std::string json_path = ExtractOption(&argc, argv, "--json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  Recorder::Instance().SetDefaultMeta();
  Recorder::Instance().PrintAndWrite(fig_name, x_label, value_label);
  if (!json_path.empty()) {
    Recorder::Instance().WriteJson(json_path, fig_name, x_label,
                                   value_label);
  }
  return 0;
}

}  // namespace benchutil
}  // namespace ustdb

#endif  // USTDB_BENCH_BENCH_COMMON_H_
