//===- perfbench/src/Calibrate.h - Machine-speed calibration ---------------===//
///
/// \file
/// The benchmark shares its machine with other work, and the machine's
/// speed swings by tens of percent within seconds. To keep timings
/// comparable between runs, every run interleaves a fixed reference
/// kernel with its workload, so that each pass or segment of the timed
/// loop has a kernel sample right before and right after it, and reports
/// the pass's timings at the reference speed: a time is scaled by
/// `factorAround()` of its pass, a rate divided by it. The kernel
/// (pointer chasing over a random graph, hash-table updates, a
/// switch-dispatched register machine, a sort; for the served workloads
/// also a ping-pong between two threads over a socket pair) is
/// self-contained, so no change to the compiler can alter it, and works in
/// buffers allocated once, so it leaves the allocator state the workload
/// sees alone. The run's `factor()` is reported as bench.machine_speed, so
/// the raw timings stay roughly recoverable.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

#include "Spans.h"

#include <cstdint>
#include <vector>

namespace perfbench {

/// The kernel's seconds per sample on the reference machine: the compute
/// part, and the ping-pong part of a kernel with context switches.
constexpr double kReferenceKernelSec = 0.025;
constexpr double kReferenceSwitchSec = 0.012;

class MachineSpeed {
public:
  /// \p WithSwitches adds the ping-pong to the kernel, for workloads whose
  /// time goes to system calls and context switches between threads.
  explicit MachineSpeed(bool WithSwitches = false);

  /// Runs the kernel and records its wall time.
  void sample();
  /// Samples when at least \p IntervalSec passed since the last sample.
  void sampleEvery(double IntervalSec);
  /// Reference time over measured time, the median over the whole run:
  /// above 1 when the machine runs faster than the reference.
  double factor() const;
  /// The same for work done between \p From and \p To, from the summed
  /// times of the samples taken in that interval and of the nearest one on
  /// each side of it.
  double factorAround(Clock::time_point From, Clock::time_point To) const;

private:
  struct Node {
    uint32_t L, R;
    uint64_t V;
  };
  struct Sample {
    Clock::time_point At; ///< when the timed kernel run ended
    double Sec;           ///< its wall time
    double RefSec;        ///< the same kernel's time on the reference
  };
  uint64_t referenceKernel();

  bool WithSwitches;
  std::vector<Node> Nodes;
  std::vector<uint64_t> Table;
  std::vector<uint8_t> Program;
  std::vector<uint64_t> Keys;
  std::vector<Sample> Samples;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H
