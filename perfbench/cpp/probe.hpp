// ProbeStack: a SocketApi decorator the traced run hands to the apps (and,
// through web_server_ring, to os::OpRing) in place of the real stack.
//
// It forwards every call unchanged and records, from outside the stack:
// how many calls of each kind were made, how long each blocking call
// waited in simulated time, and how much host time the non-blocking
// readiness probes took.  Forwarding through one more coroutine frame
// schedules no engine event (Task resumption is a trampoline, not a queue
// entry), so the traced run's causal digest must equal the untraced runs'
// -- the benchmark checks that, which is what proves the probe is
// transparent.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "oskernel/host.hpp"
#include "oskernel/socket_api.hpp"

namespace perfbench {

enum class Call : std::uint8_t {
  kSocket,
  kBind,
  kListen,
  kAccept,
  kAcceptMany,
  kConnect,
  kRead,
  kReadView,
  kWrite,
  kClose,
  kSetOption,
  kGetOption,
};
inline constexpr std::size_t kCallKinds = 12;
inline constexpr std::array<std::string_view, kCallKinds> kCallNames = {
    "socket", "bind",  "listen", "accept", "accept_many", "connect",
    "read",   "read_view", "write", "close", "set_option", "get_option"};
/// Calls whose simulated wait the per-layer metrics report as percentiles.
inline constexpr std::array<Call, 6> kBlockingCalls = {
    Call::kAccept, Call::kConnect, Call::kRead,
    Call::kReadView, Call::kWrite, Call::kClose};

/// What the probes of one run saw, summed over every host.
struct ProbeStats {
  std::array<std::uint64_t, kCallKinds> calls{};
  /// Simulated microseconds each completed call spent inside the stack.
  std::array<std::vector<double>, kCallKinds> block_us;
  std::uint64_t readiness_probes = 0;  // readable() + writable()
  std::uint64_t readiness_ns = 0;      // host ns spent inside them
  std::uint64_t bytes_read = 0;        // read + read_view payload
  std::uint64_t bytes_written = 0;

  void merge(const ProbeStats& o);
};

class ProbeStack final : public ulsocks::os::SocketApi {
 public:
  /// `host` supplies the clock: it is re-read per call because live shard
  /// rebalancing can move the host to another engine between calls.
  ProbeStack(ulsocks::os::SocketApi& inner, ulsocks::os::Host& host)
      : inner_(inner), host_(host) {}
  ProbeStack(const ProbeStack&) = delete;
  ProbeStack& operator=(const ProbeStack&) = delete;

  [[nodiscard]] const ProbeStats& stats() const noexcept { return stats_; }

  ulsocks::sim::Task<int> socket() override;
  ulsocks::sim::Task<void> bind(int sd, ulsocks::os::SockAddr local) override;
  ulsocks::sim::Task<void> listen(int sd, int backlog) override;
  ulsocks::sim::Task<int> accept(int sd, ulsocks::os::SockAddr* peer) override;
  ulsocks::sim::Task<void> connect(int sd,
                                   ulsocks::os::SockAddr remote) override;
  ulsocks::sim::Task<std::size_t> read(int sd,
                                       std::span<std::uint8_t> out) override;
  ulsocks::sim::Task<std::size_t> write(
      int sd, std::span<const std::uint8_t> in) override;
  ulsocks::sim::Task<std::size_t> read_view(int sd,
                                            ulsocks::os::RecvView& view,
                                            std::size_t max_bytes) override;
  ulsocks::sim::Task<void> close(int sd) override;
  ulsocks::sim::Task<void> set_option(int sd, ulsocks::os::SockOpt opt,
                                      int value) override;
  ulsocks::sim::Task<int> get_option(int sd,
                                     ulsocks::os::SockOpt opt) override;
  [[nodiscard]] bool readable(int sd) const override;
  [[nodiscard]] bool writable(int sd) const override;
  [[nodiscard]] ulsocks::sim::CondVar& activity() override {
    return inner_.activity();
  }
  ulsocks::sim::Task<std::size_t> accept_many(
      int sd, std::size_t max, std::vector<int>& out,
      std::vector<ulsocks::os::SockAddr>* peers) override;

 private:
  [[nodiscard]] ulsocks::sim::Time now() { return host_.engine().now(); }
  /// Count a call that started at `t0` and has just completed.
  void done(Call c, ulsocks::sim::Time t0);
  /// Run a readiness probe, adding its host time to the stats.
  template <class Probe>
  bool timed_probe(Probe probe) const;

  ulsocks::os::SocketApi& inner_;
  ulsocks::os::Host& host_;
  // readable()/writable() are const in the interface but still counted.
  mutable ProbeStats stats_;
};

}  // namespace perfbench
