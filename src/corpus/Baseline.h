//===- corpus/Baseline.h - Committed observables of the corpus matrix ----------===//
///
/// \file
/// The committed per-row baseline of the 12-benchmark x 6-variant matrix:
/// what the default compiler emits for each row and what running it
/// costs. It is the single oracle every engine answers to. Threaded and
/// switch dispatch (and the native backend, on the `sml.ffb` column) must
/// reproduce the run columns exactly; the compiler must reproduce the
/// compile columns exactly. A change to any figure is declared by editing
/// the table in Baseline.cpp, never discovered: tests/test_baseline.cpp
/// checks every row and, on a mismatch, prints the replacement table in
/// source form, ready to paste.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_CORPUS_BASELINE_H
#define SMLTC_CORPUS_BASELINE_H

#include "driver/Compiler.h"

#include <cstdint>
#include <string>
#include <vector>

namespace smltc {

struct BaselineRow {
  const char *Bench;
  const char *Variant;

  // Run columns: one execution under VmOptions() with the variant's
  // UnalignedFloats (baselineVmOptions).
  int64_t Result;
  uint64_t OutputHash; ///< fnv1a64 of everything printed
  bool Trapped;
  bool Uncaught;
  uint64_t Instructions;
  uint64_t Cycles;
  uint64_t AllocWords32;
  uint64_t BarrierStores;
  uint64_t GcCopiedWords;

  // Compile columns.
  uint64_t CodeWords;        ///< CompileMetrics::CodeSize
  uint64_t ProgramHash;      ///< fnv1a64 of programBytes()
  uint64_t BaseInstructions; ///< run Instructions with every optimizer
                             ///< extra disabled (CpsOptDisable = all)
  uint32_t OptPhases;        ///< CpsOptStats::Rounds (shrink phases)
  uint64_t OptArenaBytes;    ///< arena bytes the optimizer allocated
};

/// The committed rows, benchmark-major in benchmarkCorpus() order and,
/// within a benchmark, in CompilerOptions::allVariants() order.
const std::vector<BaselineRow> &corpusBaseline();

/// The VM options every run column is measured under.
VmOptions baselineVmOptions(const CompilerOptions &Opts);

/// Fills the run columns of \p Row from one execution.
void setRunColumns(BaselineRow &Row, const ExecResult &R);

/// Fills the compile columns of \p Row from the default compile \p C and
/// the instruction count of the base-cadence program.
void setCompileColumns(BaselineRow &Row, const CompileOutput &C,
                       uint64_t BaseInstructions);

/// Names every column where \p Got differs from \p Want, with both
/// values; empty when they agree. \p RunOnly restricts the comparison to
/// the run columns.
std::string baselineDiff(const BaselineRow &Want, const BaselineRow &Got,
                         bool RunOnly = false);

/// \p Row as one initializer of the committed table.
std::string formatBaselineRow(const BaselineRow &Row);

} // namespace smltc

#endif // SMLTC_CORPUS_BASELINE_H
