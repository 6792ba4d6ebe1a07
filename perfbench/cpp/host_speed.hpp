// Host-speed calibration for the host-time metrics.
//
// On a shared host the same simulator run takes anywhere from 1x to 2x
// its best time for stretches of seconds to minutes, as neighbours load
// the core's caches; a median over one run cannot remove that.  The
// benchmark therefore times a fixed calibration kernel -- small-block
// malloc/free churn over a cache-sized live set, which measured the same
// slow-downs as the simulator far more closely than pure arithmetic or
// pointer chasing did -- right after every run, and scales each run's host
// time to a reference host speed:
//
//   reference_seconds = measured_seconds * kReferenceMs / calibration_ms
//
// A run on several OS threads is calibrated with the kernel running on as
// many threads at once (their mean time): the shard workers see the load
// of every core they use, not just the main thread's.  The kernel is
// benchmark code, not simulator code, so a change to the simulator cannot
// move it.
#pragma once

namespace perfbench {

/// Calibration kernel duration on an unloaded core of the recording host
/// (4-vCPU Xeon VM); the speed every host-time metric is scaled to.
inline constexpr double kReferenceMs = 25.0;

/// Run the calibration kernel once on each of `threads` threads at the
/// same time; returns their mean host milliseconds.
[[nodiscard]] double calibration_ms(unsigned threads = 1);

}  // namespace perfbench
