#include "layers.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "sim/stats.hpp"

namespace perfbench {

namespace {

bool ends_with(std::string_view s, std::string_view suf) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

/// True for "h<digits>/<suffix>": one host's instance of a per-host
/// instrument.
bool is_host_key(std::string_view key, std::string_view suffix) {
  if (key.size() < 3 || key[0] != 'h' || !ends_with(key, suffix)) return false;
  std::size_t i = 1;
  while (i < key.size() && std::isdigit(static_cast<unsigned char>(key[i]))) {
    ++i;
  }
  return i > 1 && key.substr(i) == std::string("/").append(suffix);
}

double sum_hosts(const Snapshot& s, std::string_view suffix) {
  double total = 0;
  for (const auto& [k, v] : s) {
    if (is_host_key(k, suffix)) total += static_cast<double>(v);
  }
  return total;
}

double max_hosts(const Snapshot& s, std::string_view suffix) {
  double m = 0;
  for (const auto& [k, v] : s) {
    if (is_host_key(k, suffix)) m = std::max(m, static_cast<double>(v));
  }
  return m;
}

double get(const Snapshot& s, const std::string& key) {
  auto it = s.find(key);
  return it == s.end() ? 0.0 : static_cast<double>(it->second);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

double percentile(const std::vector<double>& v, double p) {
  ulsocks::sim::Series s;
  for (double x : v) s.add(x);
  return s.percentile(p);
}

void merge_snapshot(Snapshot& into, const ulsocks::obs::Registry& reg) {
  for (const auto& [key, v] : reg.snapshot()) {
    auto [it, inserted] = into.try_emplace(key, v);
    if (inserted) continue;
    if (ends_with(key, "/min")) {
      it->second = std::min(it->second, v);
    } else if (ends_with(key, "/max") || ends_with(key, "/p50") ||
               ends_with(key, "/p99") || ends_with(key, "_hwm")) {
      it->second = std::max(it->second, v);
    } else {
      it->second += v;
    }
  }
}

std::map<std::string, double> span_ns_by_component(
    ulsocks::obs::Tracer& tracer, std::size_t hosts) {
  static constexpr std::string_view kHostComponents[] = {
      "sockets", "emp", "emp-fw", "nic", "tcp"};
  // Tracks are dense ids handed out per (host, component); asking for one
  // that no layer registered just mints an unused id.
  std::map<std::uint32_t, std::string> component_of;
  for (std::size_t h = 0; h < hosts; ++h) {
    const std::string host = "h" + std::to_string(h);
    for (std::string_view c : kHostComponents) {
      component_of[tracer.track(host, c)] = std::string(c);
    }
  }
  component_of[tracer.track("net", "switch")] = "switch";
  std::map<std::string, double> out;
  for (const auto& [id, c] : component_of) out[c] = 0;
  for (const auto& ev : tracer.events()) {
    if (ev.phase != ulsocks::obs::TraceEvent::Phase::kComplete) continue;
    auto it = component_of.find(ev.track);
    if (it != component_of.end()) {
      out[it->second] += static_cast<double>(ev.dur);
    }
  }
  return out;
}

Metrics layer_metrics(const LayerInputs& in) {
  const Snapshot& s = in.snapshot;
  const auto ops = static_cast<double>(in.ops);
  const auto events = static_cast<double>(in.events);
  auto per_op = [&](double v) { return ratio(v, ops); };
  auto hosts = [&](std::string_view suffix) { return sum_hosts(s, suffix); };
  Metrics m;

  m["sim.events_per_op"] = {per_op(events), "events/op"};

  const double epochs = get(s, "shard/epochs");
  m["shard.epochs_per_op"] = {per_op(epochs), "epochs/op"};
  m["shard.events_per_epoch"] = {ratio(events, epochs), "events/epoch"};
  m["shard.remote_events_per_op"] = {per_op(get(s, "shard/remote_events")),
                                     "events/op"};
  m["shard.barrier_skips"] = {get(s, "shard/barrier_skips"), "count"};
  m["shard.migrations"] = {get(s, "shard/migrations"), "count"};
  // The group reports max/min per-shard executed events in permille.
  m["shard.imbalance"] = {get(s, "shard/imbalance") / 1000.0, "ratio"};

  m["net.frames_per_op"] = {per_op(get(s, "net/switch/frames_forwarded")),
                            "frames/op"};
  m["net.frames_dropped"] = {get(s, "net/switch/frames_dropped"), "count"};
  m["net.frames_flooded"] = {get(s, "net/switch/frames_flooded"), "count"};
  m["net.frame_pool_hwm"] = {get(s, "net/switch/frame_pool_hwm"), "frames"};

  m["nic.frames_per_op"] = {per_op(hosts("nic/frames_tx")), "frames/op"};
  m["nic.slice_pool_hwm"] = {max_hosts(s, "nic/slice_pool_hwm"), "slices"};
  m["nic.frame_pool_hwm"] = {max_hosts(s, "nic/frame_pool_hwm"), "frames"};

  m["emp.data_frames_per_op"] = {per_op(hosts("emp/data_frames_tx")),
                                 "frames/op"};
  m["emp.acks_per_op"] = {per_op(hosts("emp/acks_tx")), "frames/op"};
  m["emp.retransmits_per_op"] = {per_op(hosts("emp/retransmitted_frames")),
                                 "frames/op"};
  m["emp.tag_walk_mean"] = {ratio(hosts("emp/tag_walk_len/sum"),
                                  hosts("emp/tag_walk_len/count")),
                            "descriptors"};
  m["emp.unexpected_claims_per_op"] = {per_op(hosts("emp/unexpected_claims")),
                                       "count/op"};
  const double pin_hits = hosts("emp/pin_hits");
  m["emp.pin_hit_ratio"] = {
      ratio(pin_hits, pin_hits + hosts("emp/pin_misses")), "ratio"};
  m["emp.stale_frames"] = {hosts("emp/stale_frames"), "count"};
  m["emp.duplicate_frames"] = {hosts("emp/duplicate_frames"), "count"};

  m["tcp.segments_per_op"] = {per_op(hosts("tcp/segments_tx")),
                              "segments/op"};
  m["tcp.pure_acks_per_op"] = {per_op(hosts("tcp/pure_acks_tx")),
                               "segments/op"};
  m["tcp.interrupts_per_op"] = {per_op(hosts("tcp/interrupts")), "count/op"};
  m["tcp.retransmits"] = {hosts("tcp/retransmits"), "count"};

  const ProbeStats& p = in.probes;
  for (std::size_t c = 0; c < kCallKinds; ++c) {
    const std::string name(kCallNames[c]);
    m["sockets.calls_per_op." + name] = {
        per_op(static_cast<double>(p.calls[c])), "calls/op"};
  }
  for (Call c : kBlockingCalls) {
    const auto i = static_cast<std::size_t>(c);
    const std::string name(kCallNames[i]);
    m["sockets.block_p50_us." + name] = {percentile(p.block_us[i], 0.50),
                                          "sim_us"};
    m["sockets.block_p99_us." + name] = {percentile(p.block_us[i], 0.99),
                                          "sim_us"};
  }
  const auto probes = static_cast<double>(p.readiness_probes);
  m["sockets.readable_per_op"] = {per_op(probes), "calls/op"};
  m["sockets.readable_ns"] = {
      ratio(static_cast<double>(p.readiness_ns), probes), "ns"};
  m["sockets.credit_stall_p99_ns"] = {
      max_hosts(s, "sockets/credit_stall_ns/p99"), "sim_ns"};
  m["sockets.rendezvous_per_op"] = {
      per_op(hosts("sockets/rendezvous_messages_tx")), "count/op"};
  m["host.bytes_copied_per_byte"] = {
      ratio(get(s, "host/bytes_copied"), static_cast<double>(in.payload_bytes)),
      "ratio"};

  m["ring.batch_mean"] = {
      ratio(get(s, "ring/batch_size/sum"), get(s, "ring/batch_size/count")),
      "sqes"};
  m["ring.reap_wait_p99_ns"] = {get(s, "ring/reap_wait_ns/p99"), "sim_ns"};
  m["ring.sqe_inflight"] = {get(s, "ring/sqe_inflight"), "sqes"};

  m["check.checkers"] = {static_cast<double>(in.checkers), "count"};
  const double sweeps =
      in.check_interval > 0
          ? std::floor(events / static_cast<double>(in.check_interval))
          : 0.0;
  m["check.sweeps_per_op"] = {per_op(sweeps), "sweeps/op"};
  m["check.sweep_ns"] = {percentile(in.sweep_ns, 0.5), "ns"};

  m["apps.connect_retries"] = {static_cast<double>(in.connect_retries),
                               "count"};

  for (const char* c : {"sockets", "emp", "emp-fw", "nic", "switch", "tcp"}) {
    auto it = in.span_ns.find(c);
    const double ns = it == in.span_ns.end() ? 0.0 : it->second;
    m[std::string("simtime.") + c + "_us"] = {per_op(ns / 1e3), "sim_us"};
  }
  return m;
}

}  // namespace perfbench
