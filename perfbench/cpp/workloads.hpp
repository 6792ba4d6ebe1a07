// The benchmark's four workloads.  Each is one closed-loop traffic shape
// built fresh per run on its own simulated cluster inside this process:
// simulated connections are model state, no OS socket is opened.
//
//   pingpong  4-byte ping-pong: a substrate (ds_da_uq) pair and a TCP-lite
//             (nodelay) pair on 4 hosts, equal round-trip counts.
//   stream    64 KB application writes in 1 MB bursts, each burst answered
//             by a 4-byte ack: substrate pair drained with read_view, TCP
//             pair drained with read.
//   c10k      3 client hosts x 100 near-simultaneous connections (2
//             requests of 256 B each, credits=4) against web_server_ring.
//   web16     16-host HTTP/1.1 traffic (8 KB responses), two seeded hot
//             clients carry ~80% of requests, 4-shard ShardGroup with the
//             greedy rebalancer.
//
// "op" below is the workload's unit of work: a ping-pong round trip, a
// 64 KB write, an HTTP request.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layers.hpp"

namespace perfbench {

/// The simulated outcome of a run.  Every run of one workload and seed
/// must reproduce it bit for bit, traced or not.
struct Outcome {
  std::uint64_t causal_digest = 0;
  double sim_oneway_us = 0;     // half the mean substrate round trip
  double sim_goodput_mbps = 0;  // substrate payload bits / simulated s
  double sim_resp_p50_us = 0;   // simulated time per round trip
  double sim_resp_p99_us = 0;
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

struct RunOptions {
  std::uint64_t seed = 1;
  /// Traced run: probe stacks, sliced stepping with checker timing, and
  /// (pingpong, stream) the simulated-time tracer.
  bool traced = false;
  /// web16 only: run on one shard instead of four (the traced run's
  /// baseline for shard.speedup).
  bool one_shard = false;
};

struct RunResult {
  double setup_ns = 0;  // build the cluster and spawn, before any event
  double run_ns = 0;    // drive the simulation to completion
  std::uint64_t attempted = 0;   // ops
  std::uint64_t failed = 0;      // ops that did not complete correctly
  std::uint64_t roundtrips = 0;  // completed closed-loop round trips
  std::uint64_t ops = 0;         // completed ops
  std::uint64_t payload_bytes = 0;  // delivered, both directions
  std::uint64_t events = 0;
  unsigned threads = 1;  // OS threads the simulation ran on
  Outcome outcome;
  std::vector<std::string> errors;  // output checks that failed
  /// Traced runs only: per-layer metrics by name.
  Metrics layers;
};

/// Workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run workload `name` once.  Throws std::invalid_argument on an unknown
/// name; a simulation failure is reported in the result, not thrown.
[[nodiscard]] RunResult run_workload(const std::string& name,
                                     const RunOptions& opt);

/// Host ns per event of a bare schedule_after/run churn loop: the engine's
/// floor on this host, with no protocol work.
[[nodiscard]] double bare_ns_per_event();

}  // namespace perfbench
