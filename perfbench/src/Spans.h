//===- perfbench/src/Spans.h - In-memory span recorder ---------------------===//
///
/// \file
/// The benchmark's tracer. Spans are recorded around calls into each
/// compiler layer from the benchmark's own code (nothing inside src/ is
/// instrumented), kept in memory, and written out when the run ends.
/// A span holds its name, start, end, parent and the job or request id;
/// a layer's self time is its duration minus the time its children cover.
///
/// One SpanLog is written by one thread at a time. Handing it to another
/// thread is safe across a thread start or join.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char *Name = nullptr; ///< static string, e.g. "cps.opt"
  uint32_t Parent = 0;        ///< index + 1 of the parent; 0 for a root
  uint64_t Job = 0;           ///< job or request id, shared down the tree
  int64_t StartNs = 0;        ///< steady-clock nanoseconds
  int64_t EndNs = -1;         ///< -1 while the span is open
};

class SpanLog {
public:
  /// Opens a span under the innermost open one and returns its index.
  uint32_t open(const char *Name, uint64_t Job);
  /// Closes the innermost open span, which must be \p Index.
  void close(uint32_t Index);

  const std::vector<SpanRecord> &records() const { return Recs; }
  size_t size() const { return Recs.size(); }

  /// Self time of every record: its duration minus the union of its
  /// children's intervals.
  std::vector<int64_t> selfNs() const;

  /// Checks the tree: every span closed, children nested inside their
  /// parent and sharing its id, no negative duration or self time.
  /// Returns an empty string when the tree is sound, else the first fault.
  std::string validate() const;

  /// Appends one JSON object per span to \p Path, each tagged with
  /// \p LogIndex. Returns false on an I/O error.
  bool appendJsonLines(const std::string &Path, size_t LogIndex) const;

private:
  std::vector<SpanRecord> Recs;
  std::vector<uint32_t> Stack; ///< indices of open spans
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &L, const char *Name, uint64_t Job)
      : L(L), Index(L.open(Name, Job)) {}
  ~ScopedSpan() { L.close(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog &L;
  uint32_t Index;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
