//===- perfbench/src/Workloads.h - The benchmark's three workloads ---------===//
///
/// \file
///   corpus_compile  the 12x6 matrix through Compiler::compile, one job at
///                   a time, seeded job order on every pass, no cache.
///   corpus_run      the 72 programs (compiled during set-up) on the
///                   threaded VM plus the sml.ffb column on the native
///                   backend, seeded order on every pass.
///   served_memory   a closed loop of 2 connections to an in-process
///   served_disk     compile server (2 batch workers, Unix socket), each
///   served_miss     workload sending requests for one cache tier: memory
///                   hits, disk hits, or misses that carry a fresh seeded
///                   salt and compile.
///
/// Every workload checks every output it produces. Timings are medians;
/// counts marked exact must repeat bit for bit on every pass.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Calibrate.h"
#include "Spans.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SetupOnly = false;
};

struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  double SetupSec = 0;    ///< raw; reported at the set-up speed below
  double SetupSpeed = 1;  ///< machine speed measured right after set-up
  MachineSpeed Speed;     ///< sampled around every pass or segment
  /// Timings (at the reference speed; set-up timings raw until
  /// runWorkload scales them), ratios and counts.
  std::map<std::string, double> Metrics;
  std::map<std::string, uint64_t> Exact; ///< must repeat bit for bit
  std::vector<std::string> Errors;       ///< the first few failures
  std::vector<SpanLog> Spans;            ///< written out when the run ends

  /// Counts one failed operation and keeps its message (the first 20).
  void fail(const std::string &Msg);
};

/// When the process started, for setup_s.
extern const Clock::time_point kProcessStart;

/// Runs a workload. Returns false when it could not run at all (the
/// message is in Errors); a run with failed operations returns true with
/// Failed > 0.
bool runWorkload(const RunArgs &Args, RunResult &R);

/// Fills the native module cache for the sml.ffb column (the one-time
/// cold `cc` build), outside any timed run. Records the build's wall
/// seconds in native_cc_s when it compiled anything.
bool prepareNative(std::string &Err);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
