//===- cps/CpsOpt.h - CPS optimizer ---------------------------------------------===//
///
/// \file
/// The CPS optimizer (paper Section 5.2 and Appel's book): contractions
/// (dead code, constant folding, select-from-known-record), beta reduction
/// of once-used functions, eta reduction of continuations, inline expansion
/// of small functions, and the two new type-enabled optimizations the paper
/// adds: cancellation of wrapper/unwrapper pairs and record-copy
/// elimination (possible because record sizes are now known from CTYs).
/// Also implements Kranz-style argument flattening for known functions
/// (the sml.fag configuration).
///
/// One shrinking engine runs them: one up-front census over dense
/// CVar-indexed tables, incrementally maintained as each contraction
/// fires, with the tree mutated in place so unchanged subtrees are never
/// re-cloned. Each phase plans the non-shrinking passes (inline-small,
/// argument flattening) from phase-entry counts, then applies all
/// reductions in one top-down sweep, until a phase fires nothing.
///
/// The base cadence (--cps-opt-disable=all) is that loop alone; eta,
/// wrapcancel and hoist are fixpoint extras that contract further on top
/// of it and are on by default. The corpus baseline
/// (corpus/Baseline.h) pins the default program of every corpus row and
/// its instruction count under the base cadence.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_CPS_CPSOPT_H
#define SMLTC_CPS_CPSOPT_H

#include "cps/Cps.h"
#include "driver/Options.h"

#include <atomic>
#include <cstdint>

namespace smltc {

namespace obs {
class Registry;
}

struct CpsOptStats {
  int Rounds = 0; ///< phases run (plan, then one contraction sweep)
  size_t DeadRemoved = 0;
  size_t SelectsFolded = 0;
  size_t RecordsCopyEliminated = 0;
  size_t FloatBoxesReused = 0; ///< wrap/unwrap pairs cancelled
  size_t BranchesFolded = 0;
  size_t ConstantsFolded = 0;
  size_t InlinedOnce = 0;
  size_t InlinedSmall = 0;
  size_t EtaConts = 0;
  size_t KnownFnsFlattened = 0;
  // Fixpoint extras (zero under --cps-opt-disable=all):
  size_t EtaFuns = 0;          ///< generalized eta of forwarding functions
  size_t WrapCancelChains = 0; ///< non-adjacent wrap dedup / unwrap CSE
  /// The subset of WrapCancelChains that cancelled a per-iteration
  /// allocation or select inside a loop nest (fired through the
  /// loop-body gate rather than same-depth or last-use). These carry
  /// the dynamic-instruction wins; the bench gate keys on them.
  size_t WrapCancelLoopCarried = 0;
  size_t HoistedAllocs = 0;    ///< closed allocs hoisted out of known loops
  size_t WorklistPasses = 0; ///< contraction sweeps run
  size_t ExpandPasses = 0;   ///< inline/flatten phases run
  /// Arena payload bytes before/after the optimizer ran; the difference is
  /// the allocation churn this compile's optimization cost.
  size_t ArenaBytesBefore = 0;
  size_t ArenaBytesAfter = 0;
  /// Audit mode (setCpsOptAudit): per-variable mismatches
  /// between the incrementally maintained census and a recount.
  size_t CensusAuditFailures = 0;
  /// The optimizer was still contracting when it reached the phase
  /// safety ceiling. The driver turns this into a compile
  /// error — contraction rules provably shrink, so this is a rule bug,
  /// not a program property.
  bool HitSafetyCeiling = false;
};

/// Optimizes a CPS program in place (functionally: returns the new root).
/// \p MaxVar is the exclusive upper bound of variable ids, updated as the
/// optimizer introduces fresh variables.
Cexp *optimizeCps(Arena &A, const CompilerOptions &Opts, Cexp *Program,
                  CVar &MaxVar, CpsOptStats &Stats);

/// Process-wide totals accumulated across every optimizeCps run, for the
/// observability metrics registry.
struct CpsOptTotals {
  std::atomic<uint64_t> Runs{0};
  std::atomic<uint64_t> DeadRemoved{0};
  std::atomic<uint64_t> SelectsFolded{0};
  std::atomic<uint64_t> RecordsCopyEliminated{0};
  std::atomic<uint64_t> FloatBoxesReused{0};
  std::atomic<uint64_t> BranchesFolded{0};
  std::atomic<uint64_t> ConstantsFolded{0};
  std::atomic<uint64_t> InlinedOnce{0};
  std::atomic<uint64_t> InlinedSmall{0};
  std::atomic<uint64_t> EtaConts{0};
  std::atomic<uint64_t> KnownFnsFlattened{0};
  std::atomic<uint64_t> EtaFuns{0};
  std::atomic<uint64_t> WrapCancelChains{0};
  std::atomic<uint64_t> WrapCancelLoopCarried{0};
  std::atomic<uint64_t> HoistedAllocs{0};
  std::atomic<uint64_t> Rounds{0};
  std::atomic<uint64_t> WorklistPasses{0};
  std::atomic<uint64_t> ExpandPasses{0};
  std::atomic<uint64_t> ArenaBytes{0};
  std::atomic<uint64_t> SafetyCeilingHits{0};
};

CpsOptTotals &cpsOptTotals();

/// Registers smltcc_cps_opt_* counters over cpsOptTotals() in \p R.
void registerCpsOptMetrics(obs::Registry &R);

/// Test hook: when enabled, the optimizer recounts the census from
/// scratch after every sweep phase and records mismatches in
/// CpsOptStats::CensusAuditFailures. Off by default (it is quadratic).
void setCpsOptAudit(bool Enabled);

} // namespace smltc

#endif // SMLTC_CPS_CPSOPT_H
