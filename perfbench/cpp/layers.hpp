// Per-layer metrics of a traced run, computed from outside the program:
// the modules' own registry counters normalized per op, the SocketApi
// probe's call counts and timings, the benchmark's checker-sweep samples
// and the simulated-time spans of the obs::Tracer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probe.hpp"

namespace ulsocks::obs {
class Registry;
class Tracer;
}  // namespace ulsocks::obs

namespace perfbench {

using Snapshot = std::map<std::string, std::int64_t>;

struct Metric {
  double value = 0;
  const char* unit = "";
};
using Metrics = std::map<std::string, Metric>;

/// Fold `reg` into `into`: high-water marks, maxima and quantile bounds
/// take the max, every other counter, gauge and sum adds.  Host scopes
/// ("h<N>/...") are disjoint across shards, so this only merges the keys
/// every engine shares.
void merge_snapshot(Snapshot& into, const ulsocks::obs::Registry& reg);

/// Simulated ns covered by complete spans on each component's tracks
/// ("sockets", "emp", "emp-fw", "nic", "tcp", "switch"), summed over hosts.
[[nodiscard]] std::map<std::string, double> span_ns_by_component(
    ulsocks::obs::Tracer& tracer, std::size_t hosts);

struct LayerInputs {
  Snapshot snapshot;
  ProbeStats probes;
  std::vector<double> sweep_ns;  // host ns of sampled checker sweeps
  std::size_t checkers = 0;      // most checkers registered at a sample
  std::uint64_t check_interval = 0;  // events between engine sweeps
  std::map<std::string, double> span_ns;
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t connect_retries = 0;
};

/// Every per-layer metric that a single traced run determines.  Metrics
/// of a layer the workload does not exercise read 0.  The host-time ratios
/// that need the untraced runs (sim.ns_per_event, check.share,
/// shard.speedup, trace.overhead_pct) are filled in by the caller.
[[nodiscard]] Metrics layer_metrics(const LayerInputs& in);

/// Nearest-rank percentile (sim::Series), p in [0, 1]; 0 for no samples.
[[nodiscard]] double percentile(const std::vector<double>& v, double p);

}  // namespace perfbench
