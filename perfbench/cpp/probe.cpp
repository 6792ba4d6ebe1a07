#include "probe.hpp"

#include <chrono>

namespace perfbench {

namespace os = ulsocks::os;
namespace sim = ulsocks::sim;

namespace {

std::size_t idx(Call c) { return static_cast<std::size_t>(c); }

}  // namespace

void ProbeStats::merge(const ProbeStats& o) {
  for (std::size_t i = 0; i < kCallKinds; ++i) {
    calls[i] += o.calls[i];
    block_us[i].insert(block_us[i].end(), o.block_us[i].begin(),
                       o.block_us[i].end());
  }
  readiness_probes += o.readiness_probes;
  readiness_ns += o.readiness_ns;
  bytes_read += o.bytes_read;
  bytes_written += o.bytes_written;
}

void ProbeStack::done(Call c, sim::Time t0) {
  stats_.block_us[idx(c)].push_back(sim::to_us(now() - t0));
}

sim::Task<int> ProbeStack::socket() {
  ++stats_.calls[idx(Call::kSocket)];
  const sim::Time t0 = now();
  int sd = co_await inner_.socket();
  done(Call::kSocket, t0);
  co_return sd;
}

sim::Task<void> ProbeStack::bind(int sd, os::SockAddr local) {
  ++stats_.calls[idx(Call::kBind)];
  const sim::Time t0 = now();
  co_await inner_.bind(sd, local);
  done(Call::kBind, t0);
}

sim::Task<void> ProbeStack::listen(int sd, int backlog) {
  ++stats_.calls[idx(Call::kListen)];
  const sim::Time t0 = now();
  co_await inner_.listen(sd, backlog);
  done(Call::kListen, t0);
}

sim::Task<int> ProbeStack::accept(int sd, os::SockAddr* peer) {
  ++stats_.calls[idx(Call::kAccept)];
  const sim::Time t0 = now();
  int cs = co_await inner_.accept(sd, peer);
  done(Call::kAccept, t0);
  co_return cs;
}

sim::Task<void> ProbeStack::connect(int sd, os::SockAddr remote) {
  ++stats_.calls[idx(Call::kConnect)];
  const sim::Time t0 = now();
  co_await inner_.connect(sd, remote);
  done(Call::kConnect, t0);
}

sim::Task<std::size_t> ProbeStack::read(int sd, std::span<std::uint8_t> out) {
  ++stats_.calls[idx(Call::kRead)];
  const sim::Time t0 = now();
  std::size_t n = co_await inner_.read(sd, out);
  done(Call::kRead, t0);
  stats_.bytes_read += n;
  co_return n;
}

sim::Task<std::size_t> ProbeStack::write(int sd,
                                         std::span<const std::uint8_t> in) {
  ++stats_.calls[idx(Call::kWrite)];
  const sim::Time t0 = now();
  std::size_t n = co_await inner_.write(sd, in);
  done(Call::kWrite, t0);
  stats_.bytes_written += n;
  co_return n;
}

sim::Task<std::size_t> ProbeStack::read_view(int sd, os::RecvView& view,
                                             std::size_t max_bytes) {
  ++stats_.calls[idx(Call::kReadView)];
  const sim::Time t0 = now();
  std::size_t n = co_await inner_.read_view(sd, view, max_bytes);
  done(Call::kReadView, t0);
  stats_.bytes_read += n;
  co_return n;
}

sim::Task<void> ProbeStack::close(int sd) {
  ++stats_.calls[idx(Call::kClose)];
  const sim::Time t0 = now();
  co_await inner_.close(sd);
  done(Call::kClose, t0);
}

sim::Task<void> ProbeStack::set_option(int sd, os::SockOpt opt, int value) {
  ++stats_.calls[idx(Call::kSetOption)];
  const sim::Time t0 = now();
  co_await inner_.set_option(sd, opt, value);
  done(Call::kSetOption, t0);
}

sim::Task<int> ProbeStack::get_option(int sd, os::SockOpt opt) {
  ++stats_.calls[idx(Call::kGetOption)];
  const sim::Time t0 = now();
  int v = co_await inner_.get_option(sd, opt);
  done(Call::kGetOption, t0);
  co_return v;
}

template <class Probe>
bool ProbeStack::timed_probe(Probe probe) const {
  const auto t0 = std::chrono::steady_clock::now();
  const bool ready = probe();
  stats_.readiness_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  ++stats_.readiness_probes;
  return ready;
}

bool ProbeStack::readable(int sd) const {
  return timed_probe([&] { return inner_.readable(sd); });
}

bool ProbeStack::writable(int sd) const {
  return timed_probe([&] { return inner_.writable(sd); });
}

sim::Task<std::size_t> ProbeStack::accept_many(
    int sd, std::size_t max, std::vector<int>& out,
    std::vector<os::SockAddr>* peers) {
  ++stats_.calls[idx(Call::kAcceptMany)];
  const sim::Time t0 = now();
  std::size_t n = co_await inner_.accept_many(sd, max, out, peers);
  done(Call::kAcceptMany, t0);
  co_return n;
}

}  // namespace perfbench
