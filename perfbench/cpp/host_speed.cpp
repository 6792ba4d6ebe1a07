#include "host_speed.hpp"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

double kernel_ms() {
  constexpr std::size_t kLive = 4096;  // ~1.2 MB of live blocks
  constexpr int kOps = 1'000'000;
  std::vector<void*> live(kLive, nullptr);
  std::uint64_t x = 9;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;  // LCG
    void*& slot = live[(x >> 33) % kLive];
    std::free(slot);
    slot = std::malloc(32 + ((x >> 20) & 511));
    if (slot == nullptr) std::abort();
    *static_cast<volatile char*>(slot) = 1;  // touch the block
  }
  const auto t1 = std::chrono::steady_clock::now();
  for (void* p : live) std::free(p);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

double calibration_ms(unsigned threads) {
  std::vector<double> ms(threads == 0 ? 1 : threads);
  std::vector<std::thread> others;
  for (std::size_t i = 1; i < ms.size(); ++i) {
    others.emplace_back([&ms, i] { ms[i] = kernel_ms(); });
  }
  ms[0] = kernel_ms();
  for (std::thread& t : others) t.join();
  double sum = 0;
  for (double m : ms) sum += m;
  return sum / static_cast<double>(ms.size());
}

}  // namespace perfbench
