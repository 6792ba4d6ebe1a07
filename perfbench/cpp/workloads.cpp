#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "apps/cluster.hpp"
#include "apps/httpd.hpp"
#include "layers.hpp"
#include "net/link.hpp"
#include "oskernel/process.hpp"
#include "probe.hpp"
#include "sim/random.hpp"
#include "sim/shard.hpp"
#include "sim/stats.hpp"
#include "sockets/config.hpp"

namespace perfbench {

namespace {

using namespace ulsocks;
using Clock = std::chrono::steady_clock;
using Kind = apps::Cluster::StackKind;
using Bytes = std::vector<std::uint8_t>;

constexpr std::uint16_t kPort = 5001;

// pingpong: round trips per connection per run, and how many leading
// round trips sim_oneway_us skips (the paper's warm-up).
constexpr std::size_t kPingIters = 4000;
constexpr std::size_t kPingWarmup = 5;
constexpr std::size_t kPingBytes = 4;

// stream: 64 KB application writes, 16 per acknowledged 1 MB burst.
constexpr std::size_t kChunk = 64 * 1024;
constexpr std::size_t kChunksPerBurst = 16;
constexpr std::size_t kBursts = 24;
constexpr std::size_t kAckBytes = 4;

// c10k: the ScaleC10k shape (bench/scale.hpp) at 3 x 100 connections.
constexpr std::size_t kC10kClientHosts = 3;
constexpr std::size_t kC10kConnsPerHost = 100;
constexpr std::uint32_t kC10kResponseBytes = 256;
constexpr std::uint32_t kC10kRequestsPerConn = 2;
constexpr int kC10kBacklog = 1024;
constexpr sim::Duration kC10kSpacing = 50;  // ns between arrivals
constexpr int kC10kConnectAttempts = 7;

// web16: the skewed ScaleWeb shape (bench/harness.cpp hotspot point).
constexpr std::size_t kWebHosts = 16;
constexpr std::uint32_t kWebResponseBytes = 8192;
constexpr std::uint32_t kWebRequestsPerConn = 8;
// Two hot clients carry 80% of the requests; every connection is a full
// HTTP/1.1 batch of 8, and the 1040 requests leave ten samples above p99.
constexpr std::size_t kWebHotRequests = 416;
constexpr std::size_t kWebColdRequests = 16;
constexpr std::size_t kWebShards = 4;
constexpr sim::Duration kWebSpacing = 700;  // ns between client starts
constexpr sim::Duration kWebJitter = 100;   // seeded, added to each start

constexpr sim::Duration kStart = 10'000;  // first client activity

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// Traced-run instruments: probe stacks, sliced stepping with sampled
/// checker sweeps.  Untraced, it hands out the real stacks and runs the
/// engine straight through.
class Tracing {
 public:
  explicit Tracing(bool on) : on_(on) {}

  [[nodiscard]] bool on() const noexcept { return on_; }

  /// The stack the app on host `h` uses: the real one, or a probe around
  /// it when tracing.
  os::SocketApi& stack(apps::Cluster& cl, std::size_t h, Kind kind) {
    os::SocketApi& real = cl.stack(h, kind);
    if (!on_) return real;
    probes_.push_back(
        {h, std::make_unique<ProbeStack>(real, cl.node(h).host)});
    return *probes_.back().probe;
  }

  /// Probe totals over the hosts `pick` selects.
  [[nodiscard]] ProbeStats probe_stats(
      const std::function<bool(std::size_t)>& pick = nullptr) const {
    ProbeStats total;
    for (const auto& p : probes_) {
      if (!pick || pick(p.host)) total.merge(p.probe->stats());
    }
    return total;
  }

  /// Run `eng` to completion.  Traced, it steps in run_until slices of
  /// simulated time and times one checker sweep after each; the sweeps
  /// are read-only, so the event order is the untraced one.
  void drive(sim::Engine& eng) {
    if (!on_) {
      eng.run();
      return;
    }
    constexpr sim::Duration kSlice = 200'000;
    while (!eng.run_until(eng.now() + kSlice)) sample_checks(eng.checks());
    sample_checks(eng.checks());
  }

  void sample_checks(const check::Registry& reg) {
    const auto t0 = Clock::now();
    reg.run_all();
    sweep_ns.push_back(ns_since(t0));
    checkers = std::max(checkers, reg.size());
  }

  std::vector<double> sweep_ns;
  std::size_t checkers = 0;

 private:
  struct Probe {
    std::size_t host;
    std::unique_ptr<ProbeStack> probe;
  };
  bool on_;
  std::vector<Probe> probes_;
};

/// Run the simulation; an escaping failure (InvariantError, a process
/// error) fails every op of the run instead of aborting the benchmark.
void run_guarded(RunResult& r, const std::function<void()>& run) {
  const auto t0 = Clock::now();
  try {
    run();
  } catch (const std::exception& e) {
    r.errors.push_back(std::string("simulation failed: ") + e.what());
  }
  r.run_ns = ns_since(t0);
}

/// Settle the op accounting once the workload's own counts are in.
void settle(RunResult& r) {
  if (!r.errors.empty()) {
    r.failed = r.attempted;
  } else {
    r.failed = r.attempted - std::min(r.attempted, r.ops);
  }
}

void fill_layers(RunResult& r, Tracing& tr, Snapshot snap,
                 std::uint64_t check_interval,
                 std::map<std::string, double> span_ns,
                 std::uint64_t connect_retries) {
  LayerInputs in;
  in.snapshot = std::move(snap);
  in.probes = tr.probe_stats();
  in.sweep_ns = tr.sweep_ns;
  in.checkers = tr.checkers;
  in.check_interval = check_interval;
  in.span_ns = std::move(span_ns);
  in.events = r.events;
  in.ops = r.ops;
  in.payload_bytes = r.payload_bytes;
  in.connect_retries = connect_retries;
  r.layers = layer_metrics(in);
}

Snapshot snapshot_of(const sim::Engine& eng) {
  Snapshot s;
  merge_snapshot(s, eng.metrics());
  return s;
}

// ---- pingpong ------------------------------------------------------------

struct PingStats {
  std::vector<double> rtt_ns;
  std::size_t mismatches = 0;
};

sim::Task<void> echo_server(os::SocketApi& api, std::uint16_t node,
                            bool nodelay) {
  int ls = co_await api.socket();
  co_await api.bind(ls, os::SockAddr{node, kPort});
  co_await api.listen(ls, 2);
  int cs = co_await api.accept(ls, nullptr);
  if (nodelay) co_await api.set_option(cs, os::SockOpt::kNoDelay, 1);
  Bytes buf(kPingBytes);
  for (std::size_t i = 0; i < kPingIters; ++i) {
    co_await api.read_exact(cs, buf);
    co_await api.write_all(cs, buf);
  }
  co_await api.close(cs);
  co_await api.close(ls);
}

sim::Task<void> ping_client(sim::Engine& eng, os::SocketApi& api,
                            std::uint16_t server, bool nodelay,
                            const Bytes& msgs, PingStats& st) {
  co_await eng.delay(kStart);
  int s = co_await api.socket();
  co_await api.connect(s, os::SockAddr{server, kPort});
  if (nodelay) co_await api.set_option(s, os::SockOpt::kNoDelay, 1);
  Bytes buf(kPingBytes);
  for (std::size_t i = 0; i < kPingIters; ++i) {
    const auto msg = std::span(msgs).subspan(i * kPingBytes, kPingBytes);
    const sim::Time t0 = eng.now();
    co_await api.write_all(s, msg);
    co_await api.read_exact(s, buf);
    st.rtt_ns.push_back(static_cast<double>(eng.now() - t0));
    if (!std::equal(buf.begin(), buf.end(), msg.begin())) ++st.mismatches;
  }
  co_await api.close(s);
}

RunResult run_pingpong(const RunOptions& opt) {
  RunResult r;
  Tracing tr(opt.traced);
  sim::Rng rng(opt.seed);
  Bytes msgs(kPingIters * kPingBytes);
  rng.fill_bytes(msgs);
  PingStats emp_st;
  PingStats tcp_st;

  const auto t0 = Clock::now();
  sim::Engine eng;
  apps::Cluster cl(eng, sim::calibrated_cost_model(), 4,
                   sockets::preset("ds_da_uq").cfg);
  eng.tracer().set_enabled(opt.traced);
  eng.spawn(echo_server(tr.stack(cl, 1, Kind::kSubstrate), 1, false));
  eng.spawn(ping_client(eng, tr.stack(cl, 0, Kind::kSubstrate), 1, false,
                        msgs, emp_st));
  eng.spawn(echo_server(tr.stack(cl, 3, Kind::kTcp), 3, true));
  eng.spawn(ping_client(eng, tr.stack(cl, 2, Kind::kTcp), 3, true, msgs,
                        tcp_st));
  r.setup_ns = ns_since(t0);
  run_guarded(r, [&] { tr.drive(eng); });

  r.attempted = 2 * kPingIters;
  r.ops = emp_st.rtt_ns.size() + tcp_st.rtt_ns.size();
  r.roundtrips = r.ops;
  r.payload_bytes = r.ops * 2 * kPingBytes;
  r.events = eng.events_executed();
  if (r.ops != r.attempted) {
    r.errors.push_back("pingpong: " + std::to_string(r.ops) + " of " +
                       std::to_string(r.attempted) + " round trips completed");
  }
  if (emp_st.mismatches + tcp_st.mismatches > 0) {
    r.errors.push_back("pingpong: echoed payload differs from the ping");
  }
  settle(r);

  Outcome& o = r.outcome;
  o.causal_digest = eng.causal_digest();
  std::vector<double> rtt_us;
  for (double ns : emp_st.rtt_ns) rtt_us.push_back(ns / 1e3);
  if (rtt_us.size() > kPingWarmup) {
    o.sim_oneway_us =
        mean({rtt_us.begin() + kPingWarmup, rtt_us.end()}) / 2.0;
  }
  const double loop_ns =
      std::accumulate(emp_st.rtt_ns.begin(), emp_st.rtt_ns.end(), 0.0);
  if (loop_ns > 0) {
    o.sim_goodput_mbps = static_cast<double>(emp_st.rtt_ns.size() * 2 *
                                             kPingBytes * 8) /
                         loop_ns * 1e3;
  }
  o.sim_resp_p50_us = percentile(rtt_us, 0.50);
  o.sim_resp_p99_us = percentile(rtt_us, 0.99);

  if (opt.traced) {
    fill_layers(r, tr, snapshot_of(eng), eng.check_interval(),
                span_ns_by_component(eng.tracer(), cl.size()), 0);
  }
  return r;
}

// ---- stream --------------------------------------------------------------

struct StreamStats {
  std::uint64_t bytes_ok = 0;  // received and matching the pattern
  std::uint64_t bytes_bad = 0;
  std::vector<double> burst_ns;  // sender: burst start to its ack
  sim::Time first_write = 0;
  sim::Time last_ack = 0;
};

/// Check `got` against the repeating 64 KB pattern at stream `offset`.
bool matches(const Bytes& pattern, std::uint64_t offset,
             std::span<const std::uint8_t> got) {
  std::size_t done = 0;
  while (done < got.size()) {
    const std::size_t at = (offset + done) % pattern.size();
    const std::size_t n = std::min(got.size() - done, pattern.size() - at);
    if (std::memcmp(got.data() + done, pattern.data() + at, n) != 0) {
      return false;
    }
    done += n;
  }
  return true;
}

sim::Task<void> stream_sink(os::SocketApi& api, std::uint16_t node,
                            bool zero_copy, const Bytes& pattern,
                            StreamStats& st) {
  int ls = co_await api.socket();
  co_await api.bind(ls, os::SockAddr{node, kPort});
  co_await api.listen(ls, 2);
  int cs = co_await api.accept(ls, nullptr);
  if (!zero_copy) co_await api.set_option(cs, os::SockOpt::kNoDelay, 1);
  os::RecvView view;
  Bytes buf(kChunk);
  const Bytes ack(kAckBytes, 0x61);
  std::uint64_t offset = 0;
  auto account = [&](std::span<const std::uint8_t> part) {
    (matches(pattern, offset, part) ? st.bytes_ok : st.bytes_bad) +=
        part.size();
    offset += part.size();
  };
  for (std::size_t b = 0; b < kBursts; ++b) {
    const std::uint64_t burst_end = (b + 1) * kChunk * kChunksPerBurst;
    while (offset < burst_end) {
      const std::size_t want =
          std::min<std::uint64_t>(kChunk, burst_end - offset);
      std::size_t n = 0;
      if (zero_copy) {
        n = co_await api.read_view(cs, view, want);
        for (const auto& part : view.parts) account(part);
      } else {
        n = co_await api.read(cs, std::span(buf).first(want));
        account(std::span(buf).first(n));
      }
      if (n == 0) break;
    }
    co_await api.write_all(cs, ack);
  }
  co_await api.close(cs);
  co_await api.close(ls);
}

sim::Task<void> stream_source(sim::Engine& eng, os::SocketApi& api,
                              std::uint16_t server, bool nodelay,
                              const Bytes& pattern, StreamStats& st) {
  co_await eng.delay(kStart);
  int s = co_await api.socket();
  co_await api.connect(s, os::SockAddr{server, kPort});
  if (nodelay) co_await api.set_option(s, os::SockOpt::kNoDelay, 1);
  Bytes ack(kAckBytes);
  st.first_write = eng.now();
  for (std::size_t b = 0; b < kBursts; ++b) {
    const sim::Time t0 = eng.now();
    for (std::size_t c = 0; c < kChunksPerBurst; ++c) {
      co_await api.write_all(s, pattern);
    }
    co_await api.read_exact(s, ack);
    st.burst_ns.push_back(static_cast<double>(eng.now() - t0));
  }
  st.last_ack = eng.now();
  co_await api.close(s);
}

RunResult run_stream(const RunOptions& opt) {
  RunResult r;
  Tracing tr(opt.traced);
  sim::Rng rng(opt.seed);
  Bytes pattern(kChunk);
  rng.fill_bytes(pattern);
  StreamStats emp_st;
  StreamStats tcp_st;

  const auto t0 = Clock::now();
  sim::Engine eng;
  apps::Cluster cl(eng, sim::calibrated_cost_model(), 4,
                   sockets::preset("ds_da_uq").cfg);
  eng.tracer().set_enabled(opt.traced);
  eng.spawn(stream_sink(tr.stack(cl, 1, Kind::kSubstrate), 1, true, pattern,
                        emp_st));
  eng.spawn(stream_source(eng, tr.stack(cl, 0, Kind::kSubstrate), 1, false,
                          pattern, emp_st));
  eng.spawn(stream_sink(tr.stack(cl, 3, Kind::kTcp), 3, false, pattern,
                        tcp_st));
  eng.spawn(stream_source(eng, tr.stack(cl, 2, Kind::kTcp), 3, true, pattern,
                          tcp_st));
  r.setup_ns = ns_since(t0);
  run_guarded(r, [&] { tr.drive(eng); });

  const std::uint64_t per_conn = kBursts * kChunksPerBurst * kChunk;
  r.attempted = 2 * kBursts * kChunksPerBurst;
  r.ops = (emp_st.bytes_ok + tcp_st.bytes_ok) / kChunk;
  r.roundtrips = emp_st.burst_ns.size() + tcp_st.burst_ns.size();
  r.payload_bytes =
      emp_st.bytes_ok + tcp_st.bytes_ok + r.roundtrips * kAckBytes;
  r.events = eng.events_executed();
  for (const StreamStats* st : {&emp_st, &tcp_st}) {
    if (st->bytes_bad > 0) {
      r.errors.push_back("stream: " + std::to_string(st->bytes_bad) +
                         " received bytes differ from the payload pattern");
    }
    if (st->bytes_ok != per_conn || st->burst_ns.size() != kBursts) {
      r.errors.push_back("stream: " + std::to_string(st->bytes_ok) + " of " +
                         std::to_string(per_conn) + " bytes delivered");
    }
  }
  settle(r);

  Outcome& o = r.outcome;
  o.causal_digest = eng.causal_digest();
  std::vector<double> burst_us;
  for (double ns : emp_st.burst_ns) burst_us.push_back(ns / 1e3);
  o.sim_oneway_us = mean(burst_us) / 2.0;
  if (emp_st.last_ack > emp_st.first_write) {
    o.sim_goodput_mbps =
        static_cast<double>(emp_st.bytes_ok * 8) /
        static_cast<double>(emp_st.last_ack - emp_st.first_write) * 1e3;
  }
  o.sim_resp_p50_us = percentile(burst_us, 0.50);
  o.sim_resp_p99_us = percentile(burst_us, 0.99);

  if (opt.traced) {
    fill_layers(r, tr, snapshot_of(eng), eng.check_interval(),
                span_ns_by_component(eng.tracer(), cl.size()), 0);
  }
  return r;
}

// ---- web traffic (c10k, web16) ---------------------------------------------

/// Per-request simulated response times and completion bookkeeping.  Each
/// slot is written by one client coroutine only, so clients on different
/// shard threads never share a slot.
struct WebSlot {
  std::vector<double> request_us;
  std::uint64_t retries = 0;
  sim::Time done_at = 0;
};

/// Outcome and op accounting shared by the two web workloads.
void settle_web(RunResult& r, const std::vector<WebSlot>& slots,
                std::uint64_t causal_digest, std::uint32_t response_bytes,
                const Tracing& tr, std::size_t server_host) {
  std::vector<double> all_us;
  sim::Time end = 0;
  for (const WebSlot& s : slots) {
    all_us.insert(all_us.end(), s.request_us.begin(), s.request_us.end());
    end = std::max(end, s.done_at);
  }
  r.ops = all_us.size();
  r.roundtrips = r.ops;
  r.payload_bytes = r.ops * (apps::kHttpRequestBytes + response_bytes);
  if (r.ops > r.attempted) {
    r.errors.push_back("web: served " + std::to_string(r.ops) +
                       " requests, more than the " +
                       std::to_string(r.attempted) + " issued");
  }
  // Response lengths, seen by the probes from both ends: the server wrote
  // and the clients read exactly response_bytes per served request.
  if (tr.on() && r.errors.empty() && r.ops == r.attempted) {
    const std::uint64_t want = r.ops * response_bytes;
    const ProbeStats server =
        tr.probe_stats([&](std::size_t h) { return h == server_host; });
    const ProbeStats clients =
        tr.probe_stats([&](std::size_t h) { return h != server_host; });
    if (server.bytes_written != want || clients.bytes_read != want) {
      r.errors.push_back(
          "web: response bytes written " +
          std::to_string(server.bytes_written) + ", read " +
          std::to_string(clients.bytes_read) + ", expected " +
          std::to_string(want));
    }
  }
  settle(r);

  Outcome& o = r.outcome;
  o.causal_digest = causal_digest;
  o.sim_oneway_us = mean(all_us) / 2.0;
  if (end > 0) {
    o.sim_goodput_mbps = static_cast<double>(r.payload_bytes * 8) /
                         static_cast<double>(end) * 1e3;
  }
  o.sim_resp_p50_us = percentile(all_us, 0.50);
  o.sim_resp_p99_us = percentile(all_us, 0.99);
}

/// One client connection carrying `requests` requests (apps::web_client
/// opens one connection per requests_per_connection batch).
sim::Task<bool> web_connection(os::Process& proc, os::SocketApi& api,
                               std::uint32_t response_bytes,
                               std::uint32_t requests, WebSlot& slot) {
  apps::WebClientOptions co;
  co.server_node = 0;
  co.response_bytes = response_bytes;
  co.requests_per_connection = requests;
  co.total_requests = requests;
  sim::OnlineStats st;
  co_await apps::web_client(proc, api, co, st);
  // web_client spreads the connection's time over its requests.
  for (std::size_t i = 0; i < st.count(); ++i) {
    slot.request_us.push_back(st.mean());
  }
  co_return st.count() == requests;
}

sim::Task<void> c10k_connection(apps::Cluster& cl, os::SocketApi& api,
                                std::size_t host, sim::Duration arrival,
                                WebSlot& slot) {
  co_await cl.node_engine(host).delay(arrival);
  os::Process proc(cl.node(host).host);
  // A refused connect backs off and retries, like any C10K client.  One
  // still refused after the last attempt, or failing any other way, leaves
  // its requests unserved: they count as failed, the run goes on.
  for (int attempt = 1;; ++attempt) {
    bool refused = false;
    try {
      (void)co_await web_connection(proc, api, kC10kResponseBytes,
                                    kC10kRequestsPerConn, slot);
    } catch (const os::SocketError& e) {
      refused = e.code() == os::SockErr::kRefused;  // no co_await in here
      if (!refused) break;
    }
    if (!refused || attempt == kC10kConnectAttempts) break;
    ++slot.retries;
    // Back off, spread by arrival so refused connects do not retry in step.
    co_await cl.node_engine(host).delay(100'000 * attempt + arrival % 131);
  }
  slot.done_at = cl.node_engine(host).now();
}

RunResult run_c10k(const RunOptions& opt) {
  RunResult r;
  Tracing tr(opt.traced);
  const std::size_t conns = kC10kClientHosts * kC10kConnsPerHost;
  sim::Rng rng(opt.seed);
  std::vector<sim::Duration> arrival(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    arrival[i] = kStart + i * kC10kSpacing + rng.uniform(0, kC10kSpacing - 1);
  }
  std::vector<WebSlot> slots(conns);

  const auto t0 = Clock::now();
  sim::Engine eng;
  sockets::SubstrateConfig cfg = sockets::preset("ds_da_uq").cfg;
  cfg.credits = 4;
  cfg.buffer_bytes = 2048;
  apps::Cluster cl(eng, sim::calibrated_cost_model(), kC10kClientHosts + 1,
                   cfg);
  os::Process server_proc(cl.node(0).host);
  apps::WebServerOptions so;
  so.requests_per_connection = kC10kRequestsPerConn;
  so.max_connections = conns;
  so.backlog = kC10kBacklog;
  eng.spawn(apps::web_server_ring(server_proc,
                                  tr.stack(cl, 0, Kind::kSubstrate), so));
  std::vector<os::SocketApi*> client_api(kC10kClientHosts + 1);
  for (std::size_t h = 1; h <= kC10kClientHosts; ++h) {
    client_api[h] = &tr.stack(cl, h, Kind::kSubstrate);
  }
  for (std::size_t i = 0; i < conns; ++i) {
    const std::size_t host = 1 + i / kC10kConnsPerHost;
    eng.spawn(c10k_connection(cl, *client_api[host], host, arrival[i],
                              slots[i]));
  }
  r.setup_ns = ns_since(t0);
  run_guarded(r, [&] { tr.drive(eng); });

  r.attempted = conns * kC10kRequestsPerConn;
  r.events = eng.events_executed();
  settle_web(r, slots, eng.causal_digest(), kC10kResponseBytes, tr, 0);
  if (opt.traced) {
    std::uint64_t retries = 0;
    for (const WebSlot& s : slots) retries += s.retries;
    fill_layers(r, tr, snapshot_of(eng), eng.check_interval(), {}, retries);
  }
  return r;
}

RunResult run_web16(const RunOptions& opt) {
  RunResult r;
  Tracing tr(opt.traced);
  const std::size_t clients = kWebHosts - 1;
  sim::Rng rng(opt.seed);
  // Both hot clients start on one shard (never the fabric's shard 0, whose
  // hosts cannot migrate): every seed poses the skew the rebalancer exists
  // to fix, and only which hosts carry it varies.
  const std::size_t hot_shard = 1 + rng.uniform(0, kWebShards - 2);
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < clients; ++i) {
    if (apps::Cluster::shard_of_node(i + 1, kWebShards) == hot_shard) {
      candidates.push_back(i);
    }
  }
  const std::size_t a = rng.uniform(0, candidates.size() - 1);
  std::size_t b = rng.uniform(0, candidates.size() - 2);
  if (b >= a) ++b;
  const std::size_t hot_a = candidates[a];
  const std::size_t hot_b = candidates[b];
  std::vector<std::size_t> requests(clients, kWebColdRequests);
  requests[hot_a] = kWebHotRequests;
  requests[hot_b] = kWebHotRequests;
  // The hot clients take the first two start slots and the cold ones follow
  // in host order, so the seed moves the load between hosts without
  // reshaping the arrival pattern the simulated times depend on.
  std::vector<sim::Duration> start(clients);
  std::size_t slot = 2;
  for (std::size_t i = 0; i < clients; ++i) {
    const std::size_t rank = i == hot_a ? 0 : i == hot_b ? 1 : slot++;
    start[i] = kStart + rank * kWebSpacing + rng.uniform(0, kWebJitter - 1);
  }
  std::vector<WebSlot> slots(clients);
  std::size_t connections = 0;
  for (std::size_t n : requests) {
    connections += (n + kWebRequestsPerConn - 1) / kWebRequestsPerConn;
  }

  const auto t0 = Clock::now();
  const sim::CostModel model = sim::calibrated_cost_model();
  const std::size_t shards = opt.one_shard ? 1 : kWebShards;
  sim::ShardGroup group(shards, net::shard_lookahead(model.wire));
  apps::Cluster cl(group, model, kWebHosts,
                   sockets::preset("ds_da_uq").cfg);
  group.set_rebalance_policy(sim::ShardGroup::greedy_rebalance_policy(), 64);
  os::Process server_proc(cl.node(0).host);
  apps::WebServerOptions so;
  so.requests_per_connection = kWebRequestsPerConn;
  so.max_connections = connections;
  cl.spawn_on(0, apps::web_server(server_proc,
                                  tr.stack(cl, 0, Kind::kSubstrate), so));
  auto client = [&](std::size_t idx, os::SocketApi& api) -> sim::Task<void> {
    const std::size_t host = idx + 1;
    co_await cl.node_engine(host).delay(start[idx]);
    os::Process proc(cl.node(host).host);
    for (std::size_t left = requests[idx]; left > 0;) {
      const auto batch = static_cast<std::uint32_t>(
          std::min<std::size_t>(left, kWebRequestsPerConn));
      if (!co_await web_connection(proc, api, kWebResponseBytes, batch,
                                   slots[idx])) {
        break;
      }
      left -= batch;
    }
    // The host's current engine: rebalancing may have moved it.
    slots[idx].done_at = proc.host().engine().now();
  };
  for (std::size_t i = 0; i < clients; ++i) {
    cl.spawn_on(i + 1, client(i, tr.stack(cl, i + 1, Kind::kSubstrate)));
  }
  r.setup_ns = ns_since(t0);
  const unsigned threads = std::min<unsigned>(
      static_cast<unsigned>(shards),
      std::max(1u, std::thread::hardware_concurrency()));
  r.threads = threads;
  run_guarded(r, [&] { group.run(threads); });

  r.attempted = std::accumulate(requests.begin(), requests.end(),
                                std::uint64_t{0});
  r.events = group.events_executed();
  settle_web(r, slots, group.causal_digest(), kWebResponseBytes, tr, 0);
  if (opt.traced) {
    // The group runs to completion in one call, so its checkers are timed
    // once per shard after the run rather than at points during it.
    Snapshot snap;
    for (std::size_t i = 0; i < group.size(); ++i) {
      merge_snapshot(snap, group.shard(i).metrics());
      tr.sample_checks(group.shard(i).checks());
    }
    merge_snapshot(snap, group.metrics());
    fill_layers(r, tr, std::move(snap), group.shard(0).check_interval(), {},
                0);
  }
  return r;
}

struct Workload {
  std::string_view name;
  RunResult (*run)(const RunOptions&);
};
constexpr Workload kWorkloads[] = {{"pingpong", run_pingpong},
                                   {"stream", run_stream},
                                   {"c10k", run_c10k},
                                   {"web16", run_web16}};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& [name, run] : kWorkloads) v.emplace_back(name);
    return v;
  }();
  return names;
}

RunResult run_workload(const std::string& name, const RunOptions& opt) {
  for (const auto& [known, run] : kWorkloads) {
    if (known == name) return run(opt);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

double bare_ns_per_event() {
  constexpr std::uint64_t kEvents = 1'000'000;
  sim::Engine eng;
  struct Chain {
    sim::Engine* eng;
    std::uint64_t left;
    void operator()() {
      if (--left == 0) return;
      eng->schedule_after(100, Chain{*this});
    }
  };
  for (std::uint64_t lane = 0; lane < 4; ++lane) {
    eng.schedule_after(lane, Chain{&eng, kEvents / 4});
  }
  const auto t0 = Clock::now();
  eng.run();
  return ns_since(t0) / static_cast<double>(eng.events_executed());
}

}  // namespace perfbench
