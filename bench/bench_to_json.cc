// Converts google-benchmark JSON output into the repo's BENCH_*.json schema,
// and compares two such files for perf regressions. Used by ci/perf_smoke.sh
// to guard the engine hot path against re-introduced allocations or
// complexity, with the blessed numbers committed at bench/baselines/.
//
//   bench_to_json --convert raw.json --source micro_kernel_ops --out BENCH_micro.json
//   bench_to_json --compare baseline.json candidate.json [--max-ratio 3.0]
//
// The schema is deliberately tiny so it survives benchmark-library upgrades:
//
//   { "schema": "wdmlat-bench-v1",
//     "source": "micro_kernel_ops",
//     "benchmarks": [ { "name": "...", "real_ns": 1.0, "cpu_ns": 1.0,
//                       "iterations": 100 } ] }
//
// Compare mode checks cpu_ns (less host-noise than wall time) of every
// baseline benchmark against the candidate, printing the per-benchmark delta
// percentage, and exits nonzero if any ratio exceeds its limit or a baseline
// benchmark disappeared (renames require re-baselining; see EXPERIMENTS.md).
// The limit is --max-ratio unless the baseline row carries its own
// "max_ratio" field, which overrides it for that benchmark only — a noisy
// benchmark can widen its own gate without loosening the file. The generous
// default ratio of 3.0 tolerates shared-CI noise while still catching
// order-of-magnitude regressions like an accidental allocation on the
// schedule path.
//
// Both inputs are read through obs::ParseJson, the repo's one strict JSON
// grammar: a duplicate key, an overflowing number or a syntax error fails
// with its line and column instead of being half-read.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json.h"

namespace {

using wdmlat::obs::JsonValue;

struct BenchEntry {
  std::string name;
  double real_ns = 0.0;
  double cpu_ns = 0.0;
  double iterations = 0.0;
  // Per-benchmark regression tolerance from the baseline row ("max_ratio"
  // key); 0 means "use the --max-ratio default". Lets a noisy benchmark
  // carry a wider gate without loosening the whole file.
  double max_ratio = 0.0;
};

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The document at `path`, read through the repo's one strict JSON grammar
// (duplicate keys and overflowing numbers rejected), or nullopt with the
// error's position printed.
std::optional<JsonValue> ParseFile(const std::string& path) {
  const auto text = ReadFile(path);
  if (!text) {
    std::cerr << "bench_to_json: cannot read " << path << "\n";
    return std::nullopt;
  }
  wdmlat::obs::JsonParseResult parsed = wdmlat::obs::ParseJson(*text);
  if (!parsed.valid) {
    std::cerr << "bench_to_json: " << path << ":" << parsed.error_line << ":"
              << parsed.error_column << ": not valid JSON: " << parsed.error << "\n";
    return std::nullopt;
  }
  return std::move(parsed.value);
}

double ToNs(double value, const std::string& unit) {
  if (unit == "ns") return value;
  if (unit == "us") return value * 1e3;
  if (unit == "ms") return value * 1e6;
  if (unit == "s") return value * 1e9;
  return value;  // google-benchmark default is ns
}

// Pull the per-iteration rows out of google-benchmark's --benchmark_format=
// json output, skipping aggregate rows (mean/median/stddev) if present.
std::optional<std::vector<BenchEntry>> ExtractFromGoogleBenchmark(const JsonValue& root) {
  const JsonValue* benchmarks = root.Find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    std::cerr << "bench_to_json: no benchmarks array (is this google-benchmark output?)\n";
    return std::nullopt;
  }
  std::vector<BenchEntry> entries;
  for (const JsonValue& row : benchmarks->items()) {
    const JsonValue* run_type = row.Find("run_type");
    if (run_type != nullptr && run_type->as_string() != "iteration") {
      continue;
    }
    const JsonValue* name = row.Find("name");
    const JsonValue* real_time = row.Find("real_time");
    const JsonValue* cpu_time = row.Find("cpu_time");
    const JsonValue* iterations = row.Find("iterations");
    if (name == nullptr || real_time == nullptr || cpu_time == nullptr) {
      std::cerr << "bench_to_json: benchmark row missing name/real_time/cpu_time\n";
      return std::nullopt;
    }
    const JsonValue* unit = row.Find("time_unit");
    const std::string time_unit = unit != nullptr ? unit->as_string() : "ns";
    entries.push_back(BenchEntry{name->as_string(), ToNs(real_time->as_number(), time_unit),
                                 ToNs(cpu_time->as_number(), time_unit),
                                 iterations != nullptr ? iterations->as_number() : 0.0});
  }
  return entries;
}

// Read a file already in the wdmlat-bench-v1 schema.
std::optional<std::vector<BenchEntry>> ExtractFromRepoSchema(const std::string& path) {
  const auto root = ParseFile(path);
  if (!root) {
    return std::nullopt;
  }
  const JsonValue* schema = root->Find("schema");
  if (schema == nullptr || schema->as_string() != "wdmlat-bench-v1") {
    std::cerr << "bench_to_json: " << path << " is not wdmlat-bench-v1\n";
    return std::nullopt;
  }
  const JsonValue* benchmarks = root->Find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    std::cerr << "bench_to_json: " << path << " has no benchmarks array\n";
    return std::nullopt;
  }
  std::vector<BenchEntry> entries;
  for (const JsonValue& row : benchmarks->items()) {
    const JsonValue* name = row.Find("name");
    const JsonValue* real_ns = row.Find("real_ns");
    const JsonValue* cpu_ns = row.Find("cpu_ns");
    const JsonValue* iterations = row.Find("iterations");
    if (name == nullptr || real_ns == nullptr || cpu_ns == nullptr) {
      std::cerr << "bench_to_json: " << path << " row missing name/real_ns/cpu_ns\n";
      return std::nullopt;
    }
    const JsonValue* row_ratio = row.Find("max_ratio");
    entries.push_back(BenchEntry{name->as_string(), real_ns->as_number(), cpu_ns->as_number(),
                                 iterations != nullptr ? iterations->as_number() : 0.0,
                                 row_ratio != nullptr ? row_ratio->as_number() : 0.0});
  }
  return entries;
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

int Convert(const std::string& raw_path, const std::string& source, const std::string& out_path) {
  const auto root = ParseFile(raw_path);
  if (!root) {
    return 1;
  }
  const auto entries = ExtractFromGoogleBenchmark(*root);
  if (!entries || entries->empty()) {
    std::cerr << "bench_to_json: no benchmark rows in " << raw_path << "\n";
    return 1;
  }
  std::ostringstream out;
  out.precision(6);
  out << std::fixed;
  out << "{\n  \"schema\": \"wdmlat-bench-v1\",\n  \"source\": \"" << EscapeJson(source)
      << "\",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries->size(); ++i) {
    const BenchEntry& e = (*entries)[i];
    out << "    {\"name\": \"" << EscapeJson(e.name) << "\", \"real_ns\": " << e.real_ns
        << ", \"cpu_ns\": " << e.cpu_ns << ", \"iterations\": " << static_cast<long long>(e.iterations)
        << "}" << (i + 1 < entries->size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::ofstream file(out_path);
  if (!file) {
    std::cerr << "bench_to_json: cannot write " << out_path << "\n";
    return 1;
  }
  file << out.str();
  std::cout << "bench_to_json: wrote " << entries->size() << " benchmarks to " << out_path << "\n";
  return 0;
}

int Compare(const std::string& baseline_path, const std::string& candidate_path,
            double max_ratio) {
  const auto baseline = ExtractFromRepoSchema(baseline_path);
  const auto candidate = ExtractFromRepoSchema(candidate_path);
  if (!baseline || !candidate) {
    return 1;
  }
  int failures = 0;
  std::vector<std::string> missing;
  for (const BenchEntry& base : *baseline) {
    const BenchEntry* cand = nullptr;
    for (const BenchEntry& c : *candidate) {
      if (c.name == base.name) {
        cand = &c;
        break;
      }
    }
    if (cand == nullptr) {
      std::cerr << "FAIL " << base.name << ": missing from candidate (re-baseline after renames)\n";
      missing.push_back(base.name);
      continue;
    }
    if (base.cpu_ns <= 0.0) {
      std::cerr << "FAIL " << base.name << ": baseline cpu_ns is not positive\n";
      ++failures;
      continue;
    }
    // A baseline row can carry its own "max_ratio" gate; --max-ratio is the
    // default for rows without one.
    const double limit = base.max_ratio > 0.0 ? base.max_ratio : max_ratio;
    const double ratio = cand->cpu_ns / base.cpu_ns;
    const double delta_pct = (ratio - 1.0) * 100.0;
    const bool ok = ratio <= limit;
    char delta[64];
    std::snprintf(delta, sizeof(delta), "%+.1f%%", delta_pct);
    std::cout << (ok ? "ok   " : "FAIL ") << base.name << ": cpu " << base.cpu_ns << " -> "
              << cand->cpu_ns << " ns (" << delta << ", " << ratio << "x, limit " << limit
              << "x" << (base.max_ratio > 0.0 ? ", per-benchmark" : "") << ")\n";
    if (!ok) {
      ++failures;
    }
  }
  for (const BenchEntry& c : *candidate) {
    bool known = false;
    for (const BenchEntry& base : *baseline) {
      known = known || base.name == c.name;
    }
    if (!known) {
      std::cout << "new  " << c.name << ": not in baseline (informational)\n";
    }
  }
  // Missing entries are their own failure class, reported by name: a
  // baseline benchmark that silently disappears from the run would otherwise
  // exempt itself from the gate forever.
  if (!missing.empty()) {
    std::cerr << "bench_to_json: " << missing.size()
              << " baseline benchmark(s) missing from candidate:";
    for (const std::string& name : missing) {
      std::cerr << " " << name;
    }
    std::cerr << "\n";
  }
  if (failures > 0) {
    std::cerr << "bench_to_json: " << failures << " benchmark(s) regressed past " << max_ratio
              << "x\n";
  }
  if (failures > 0 || !missing.empty()) {
    return 1;
  }
  std::cout << "bench_to_json: all " << baseline->size() << " benchmarks within " << max_ratio
            << "x of baseline\n";
  return 0;
}

int Usage() {
  std::cerr
      << "usage:\n"
      << "  bench_to_json --convert RAW.json --source NAME --out OUT.json\n"
      << "  bench_to_json --compare BASELINE.json CANDIDATE.json [--max-ratio 3.0]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    return Usage();
  }
  if (args[0] == "--convert") {
    std::string raw;
    std::string source = "unknown";
    std::string out;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--source" && i + 1 < args.size()) {
        source = args[++i];
      } else if (args[i] == "--out" && i + 1 < args.size()) {
        out = args[++i];
      } else if (raw.empty()) {
        raw = args[i];
      } else {
        return Usage();
      }
    }
    if (raw.empty() || out.empty()) {
      return Usage();
    }
    return Convert(raw, source, out);
  }
  if (args[0] == "--compare") {
    std::string baseline;
    std::string candidate;
    double max_ratio = 3.0;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--max-ratio" && i + 1 < args.size()) {
        max_ratio = std::strtod(args[++i].c_str(), nullptr);
      } else if (baseline.empty()) {
        baseline = args[i];
      } else if (candidate.empty()) {
        candidate = args[i];
      } else {
        return Usage();
      }
    }
    if (baseline.empty() || candidate.empty() || max_ratio <= 0.0) {
      return Usage();
    }
    return Compare(baseline, candidate, max_ratio);
  }
  return Usage();
}
