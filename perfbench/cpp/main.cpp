// perfbench: run one benchmark workload and print its metrics.
//
//   perfbench --workload <pingpong|stream|c10k|web16> --seed N
//             --seconds S --trace <0|1>
//
// Untraced (--trace 0): one warm-up run fixes the reference simulated
// outcome, then the workload repeats until S host seconds have passed;
// every end-to-end metric is the median over the repeats.  Traced
// (--trace 1): untraced repeats for most of the budget give the median the
// traced run is compared against, then one traced run yields the
// per-layer metrics.  Every run must reproduce the reference outcome; one
// that does not fails all its ops.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "host_speed.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Outcome;
using perfbench::RunOptions;
using perfbench::RunResult;
using Clock = std::chrono::steady_clock;

// Enough repeats for a stable median even when one run is long.
constexpr std::size_t kMinRuns = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("--workload must be one of pingpong, stream, c10k, web16");
  }
  return a;
}

double median(const std::vector<double>& v) {
  return perfbench::percentile(v, 0.5);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KB
}

/// Op accounting and output checks over every run the benchmark made.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Count `r` against the reference outcome `ref`.  A run that simulates
  /// a different outcome fails all its ops.
  void add(RunResult& r, const Outcome& ref, const char* what) {
    if (r.errors.empty() && !(r.outcome == ref)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s: simulated outcome differs from the reference run "
                    "(causal digest %016" PRIx64 " vs %016" PRIx64 ")",
                    what, r.outcome.causal_digest, ref.causal_digest);
      r.errors.emplace_back(buf);
      r.failed = r.attempted;
    }
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& e : r.errors) errors.push_back(e);
  }
};

/// One run plus the host-speed factor measured right after it: multiply
/// the run's host times by `to_reference` to get reference-host times.
struct Timed {
  RunResult run;
  double to_reference = 1;
};

Timed timed_run(const std::string& workload, const RunOptions& opt) {
  Timed t{perfbench::run_workload(workload, opt), 1};
  t.to_reference =
      perfbench::kReferenceMs / perfbench::calibration_ms(t.run.threads);
  return t;
}

/// Untraced repeats until `budget_s` host seconds from `t0` have passed
/// (at least kMinRuns).
std::vector<Timed> repeat(const Args& a, const Outcome& ref,
                          Clock::time_point t0, double budget_s, Tally& tally) {
  std::vector<Timed> runs;
  RunOptions opt;
  opt.seed = a.seed;
  while (runs.size() < kMinRuns || seconds_since(t0) < budget_s) {
    runs.push_back(timed_run(a.workload, opt));
    tally.add(runs.back().run, ref, "repeat");
  }
  return runs;
}

template <class F>
double median_of(const std::vector<Timed>& runs, F f) {
  std::vector<double> v;
  for (const Timed& t : runs) v.push_back(f(t.run, t.to_reference));
  return median(v);
}

void print_outcome(const Args& a, const Outcome& o, std::size_t runs,
                   const Tally& t) {
  std::printf("workload %s  seed %" PRIu64 "  runs %zu  causal_digest "
              "%016" PRIx64 "\n",
              a.workload.c_str(), a.seed, runs, o.causal_digest);
  std::printf("error_rate %.6g (%" PRIu64 " failed of %" PRIu64
              " attempted ops)\n",
              t.attempted ? static_cast<double>(t.failed) /
                                static_cast<double>(t.attempted)
                          : 0.0,
              t.failed, t.attempted);
  // Reference values from the paper, reported beside the simulated ones
  // with no gate.  The cost model was calibrated on these same numbers, so
  // agreement shows calibration, not independent validation.
  if (a.workload == "pingpong") {
    std::printf("sim_oneway_us %.4f  (paper 4-byte latency: DG 28.5 us, "
                "DS 37 us; this substrate runs ds_da_uq)\n",
                o.sim_oneway_us);
  } else if (a.workload == "stream") {
    std::printf("sim_goodput_mbps %.2f  (paper peak: ~840 Mb/s)\n",
                o.sim_goodput_mbps);
  }
}

void print_result(const Tally& t, bool correct,
                  const perfbench::Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char num[64];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const auto t0 = Clock::now();
  Tally tally;

  RunOptions opt;
  opt.seed = a.seed;
  RunResult warm = perfbench::run_workload(a.workload, opt);
  const Outcome ref = warm.outcome;
  tally.add(warm, ref, "warm-up");
  // Memory one run needs, before repeats add allocator fragmentation.
  const double rss_mb = peak_rss_mb();

  perfbench::Metrics metrics;
  std::size_t runs_made = 1;
  if (!a.trace) {
    const auto runs = repeat(a, ref, t0, a.seconds, tally);
    runs_made += runs.size();
    // Work per reference-host second (see host_speed.hpp).
    auto rate = [&](auto work) {
      return median_of(runs, [&](const RunResult& r, double f) {
        return static_cast<double>(work(r)) / (r.run_ns * f) * 1e9;
      });
    };
    metrics["setup_s"] = {median_of(runs,
                                    [](const RunResult& r, double f) {
                                      return r.setup_ns * f / 1e9;
                                    }),
                          "s"};
    metrics["roundtrips_per_s"] = {
        rate([](const RunResult& r) { return r.roundtrips; }), "1/s"};
    metrics["requests_per_s"] = {
        rate([](const RunResult& r) { return r.ops; }), "1/s"};
    metrics["mb_per_s"] = {
        rate([](const RunResult& r) { return r.payload_bytes / 1e6; }),
        "MB/s"};
    metrics["peak_rss_mb"] = {rss_mb, "MB"};
    metrics["sim_oneway_us"] = {ref.sim_oneway_us, "sim_us"};
    metrics["sim_goodput_mbps"] = {ref.sim_goodput_mbps, "sim_Mb/s"};
    metrics["sim_resp_p50_us"] = {ref.sim_resp_p50_us, "sim_us"};
    metrics["sim_resp_p99_us"] = {ref.sim_resp_p99_us, "sim_us"};
  } else {
    // Every host time below is in reference-host time (host_speed.hpp), so
    // the ratios between the traced and untraced runs do not depend on how
    // loaded the host was during each.
    // Most of the budget goes to the untraced repeats; the rest leaves room
    // for the traced run, which takes up to twice an untraced one.
    const auto runs = repeat(a, ref, t0, a.seconds * 0.8, tally);
    runs_made += runs.size();
    const double run_ns = median_of(
        runs, [](const RunResult& r, double f) { return r.run_ns * f; });
    RunOptions traced_opt = opt;
    traced_opt.traced = true;
    Timed traced = timed_run(a.workload, traced_opt);
    tally.add(traced.run, ref, "traced run");
    ++runs_made;
    metrics = traced.run.layers;
    for (const char* host_ns : {"sockets.readable_ns", "check.sweep_ns"}) {
      metrics[host_ns].value *= traced.to_reference;
    }
    const double events = static_cast<double>(traced.run.events);
    metrics["sim.ns_per_event"] = {run_ns / events, "ns"};
    std::vector<double> bare;
    for (int i = 0; i < 3; ++i) {
      const double ns = perfbench::bare_ns_per_event();
      bare.push_back(ns * perfbench::kReferenceMs /
                     perfbench::calibration_ms());
    }
    metrics["sim.bare_ns_per_event"] = {median(bare), "ns"};
    // Host share of a run spent sweeping checkers: the sweeps the engine
    // makes times the sampled cost of one.
    const double sweeps = metrics["check.sweeps_per_op"].value *
                          static_cast<double>(traced.run.ops);
    metrics["check.share"] = {
        sweeps * metrics["check.sweep_ns"].value / run_ns * 100.0, "%"};
    metrics["trace.overhead_pct"] = {
        (traced.run.run_ns * traced.to_reference / run_ns - 1.0) * 100.0,
        "%"};
    metrics["shard.speedup"] = {0, "ratio"};
    if (a.workload == "web16") {
      // The same traffic on one shard: must simulate the same outcome.
      RunOptions serial = opt;
      serial.one_shard = true;
      Timed one = timed_run(a.workload, serial);
      tally.add(one.run, ref, "one-shard run");
      ++runs_made;
      metrics["shard.speedup"].value =
          one.run.run_ns * one.to_reference / run_ns;
    }
  }

  print_outcome(a, ref, runs_made, tally);
  for (const auto& e : tally.errors) std::printf("error: %s\n", e.c_str());
  print_result(tally, tally.errors.empty(), metrics);
  return 0;
}
