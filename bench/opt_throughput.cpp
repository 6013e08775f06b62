//===- bench/opt_throughput.cpp - CPS-optimizer fixpoint gate -------------------===//
//
// Gates the CPS optimizer against the committed corpus baseline
// (corpus/Baseline.cpp) and measures what its fixpoint extras (eta,
// wrap/unwrap cancellation breadth, invariant hoisting) buy over its base
// cadence.
//
// Over the full Figure 7/8 compile matrix (12 benchmarks x 6 variants =
// 72 jobs), each job is compiled by default and under the base cadence
// (--cps-opt-disable=all):
//
//   1. baseline: the default program's observables (result, printed
//      output, trap state, store-barrier count, dynamic instructions),
//      its optimizer phases and arena bytes, and the base cadence's
//      dynamic instructions all equal the committed row exactly.
//   2. ratchet: per row, the default never executes more dynamic
//      instructions than the base cadence.
//   3. convergence: no row stops at the phase safety ceiling.
//   4. instruction wins: geomean dynamic-instruction reduction, default
//      vs base cadence, >= 1% over the affected rows (any nonzero delta)
//      and >= 3% over the materially affected rows (reduction >= 1%). The
//      full-corpus geomean is reported unfiltered for context.
//
// The best-of-N cps_opt phase seconds per row are reported, not gated:
// wall time depends on the host, the phase and arena counts do not.
// Each row also carries a per-rule ablation: one extra compile per
// --cps-opt-disable rule, recording how many dynamic instructions return
// when that rule is turned off.
//
// Results land in BENCH_opt.json.
//
// Usage: opt_throughput [--smoke] [--iters=N] [--out=PATH]
//   --smoke   2 timing iterations instead of 5 (CI); all gates still apply
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "obs/Json.h"

#include <cstring>
#include <iterator>

using namespace smltc;
using namespace smltc::bench;

namespace {

struct OptRun {
  bool Ok = false;
  double BestOptSec = 0;
  CpsOptStats Opt; ///< optimizer statistics of the last compile
  Measurement M;   ///< VM run of the last compile
};

OptRun timeOptimizer(const BenchmarkProgram &P, const CompilerOptions &Opts,
                     int Iters) {
  OptRun R;
  for (int I = 0; I < Iters; ++I) {
    CompileOutput C = Compiler::compile(P.Source, Opts);
    if (!C.Ok) {
      std::fprintf(stderr, "compile failed (%s %s): %s\n", P.Name,
                   Opts.VariantName, C.Errors.c_str());
      return R;
    }
    double S = C.Metrics.CpsOptSec;
    if (R.BestOptSec == 0 || S < R.BestOptSec)
      R.BestOptSec = S;
    if (I + 1 == Iters) {
      R.Opt = C.Metrics.Opt;
      R.M = runCompiled(C, Opts, P.Name);
      R.Ok = R.M.Ok;
    }
  }
  return R;
}

struct Ablation {
  const char *Name;
  uint8_t Bit;
};

constexpr Ablation kAblations[] = {
    {"eta", kCpsRuleEta},
    {"wrapcancel", kCpsRuleWrapCancel},
    {"hoist", kCpsRuleHoist},
};

/// Dynamic instruction count with the rules in \p DisableBits disabled;
/// 0 on failure.
uint64_t ablatedInstructions(const BenchmarkProgram &P, CompilerOptions Opts,
                             uint8_t DisableBits) {
  Opts.CpsOptDisable = DisableBits;
  Measurement M = measure(P.Source, Opts);
  return M.Ok ? M.Instructions : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  int Iters = 5;
  std::string OutPath = "BENCH_opt.json";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(Argv[I], "--iters=", 8) == 0)
      Iters = std::atoi(Argv[I] + 8);
    else if (std::strncmp(Argv[I], "--out=", 6) == 0)
      OutPath = Argv[I] + 6;
  }
  if (Smoke)
    Iters = 2;
  if (Iters < 1)
    Iters = 1;

  size_t NumVariants = 0;
  const CompilerOptions *Variants = CompilerOptions::allVariants(NumVariants);
  size_t NumJobs = benchmarkCorpus().size() * NumVariants;
  std::printf("opt_throughput: %zu jobs, best of %d compile%s%s\n\n", NumJobs,
              Iters, Iters == 1 ? "" : "s", Smoke ? " [smoke]" : "");
  std::printf("%-10s %-8s %10s %7s %10s %9s  %s\n", "bench", "variant",
              "opt(us)", "phases", "arena(KiB)", "instr-d%", "baseline");

  bool AllMatch = true;
  bool AllOk = true;
  bool AnyRegressed = false;
  bool AnyCapped = false;
  // Dynamic-instruction ratios base/default (>= 1 means the extras won).
  std::vector<double> InstrAll, InstrAffected, InstrMaterial;
  double OptTotal = 0;
  uint64_t ArenaTotal = 0;
  uint64_t RuleDeltaTotals[std::size(kAblations)] = {};

  obs::JsonWriter W;
  W.beginObject();
  W.field("bench", "opt_throughput");
  W.field("iterations", Iters);
  W.field("smoke", Smoke);
  W.field("jobs", static_cast<uint64_t>(NumJobs));
  W.key("rows").beginArray();

  for (const BenchmarkProgram &P : benchmarkCorpus()) {
    for (size_t V = 0; V < NumVariants; ++V) {
      const BaselineRow *Row = baselineRow(P, Variants[V]);
      OptRun R = timeOptimizer(P, Variants[V], Iters);
      uint64_t BaseInstr = ablatedInstructions(P, Variants[V], kCpsRuleAll);
      if (!Row || !R.Ok || BaseInstr == 0) {
        AllOk = false;
        continue;
      }
      uint64_t Arena = R.Opt.ArenaBytesAfter - R.Opt.ArenaBytesBefore;
      bool Match = R.M.Result == Row->Result &&
                   fnv1a64(R.M.Output) == Row->OutputHash &&
                   R.M.Trapped == Row->Trapped &&
                   R.M.BarrierStores == Row->BarrierStores &&
                   R.M.Instructions == Row->Instructions &&
                   BaseInstr == Row->BaseInstructions &&
                   static_cast<uint32_t>(R.Opt.Rounds) == Row->OptPhases &&
                   Arena == Row->OptArenaBytes;
      AllMatch = AllMatch && Match;
      if (R.M.Instructions > BaseInstr)
        AnyRegressed = true;
      if (R.Opt.HitSafetyCeiling)
        AnyCapped = true;
      double InstrRatio = R.M.Instructions > 0
                              ? static_cast<double>(BaseInstr) /
                                    static_cast<double>(R.M.Instructions)
                              : 1.0;
      double ReductionPct = (1.0 - 1.0 / InstrRatio) * 100.0;
      InstrAll.push_back(InstrRatio);
      if (R.M.Instructions != BaseInstr)
        InstrAffected.push_back(InstrRatio);
      if (ReductionPct >= 1.0)
        InstrMaterial.push_back(InstrRatio);
      OptTotal += R.BestOptSec;
      ArenaTotal += Arena;
      std::printf("%-10s %-8s %10.1f %7d %10.1f %8.3f%%  %s\n", P.Name,
                  Variants[V].VariantName, R.BestOptSec * 1e6, R.Opt.Rounds,
                  Arena / 1024.0, ReductionPct, Match ? "exact" : "DIFFERS");
      W.beginObject();
      W.field("bench", P.Name);
      W.field("variant", Variants[V].VariantName);
      W.field("opt_us", R.BestOptSec * 1e6, 2);
      W.field("matches_baseline", Match);
      W.field("base_instructions", BaseInstr);
      W.field("instructions", R.M.Instructions);
      W.field("instr_reduction_pct", ReductionPct, 4);
      W.field("barrier_stores", R.M.BarrierStores);
      W.field("arena_bytes", Arena);
      W.field("phases", static_cast<uint64_t>(R.Opt.Rounds));
      W.field("expand_phases", static_cast<uint64_t>(R.Opt.ExpandPasses));
      W.field("eta_funs", static_cast<uint64_t>(R.Opt.EtaFuns));
      W.field("wrap_cancel_chains",
              static_cast<uint64_t>(R.Opt.WrapCancelChains));
      W.field("hoisted_allocs", static_cast<uint64_t>(R.Opt.HoistedAllocs));
      // Per-rule ablation: dynamic instructions that come back when each
      // fixpoint rule is disabled alone (0 delta = rule did not matter
      // for this row).
      W.key("ablation").beginObject();
      for (size_t A = 0; A < std::size(kAblations); ++A) {
        uint64_t AblInstr =
            ablatedInstructions(P, Variants[V], kAblations[A].Bit);
        uint64_t Delta =
            AblInstr > R.M.Instructions ? AblInstr - R.M.Instructions : 0;
        RuleDeltaTotals[A] += Delta;
        W.field(kAblations[A].Name, Delta);
      }
      W.endObject();
      W.endObject();
    }
  }
  W.endArray();

  double GeoAll = InstrAll.empty() ? 1.0 : geomean(InstrAll);
  double GeoAffected = InstrAffected.empty() ? 1.0 : geomean(InstrAffected);
  double GeoMaterial = InstrMaterial.empty() ? 1.0 : geomean(InstrMaterial);
  auto Pct = [](double G) { return (1.0 - 1.0 / G) * 100.0; };
  std::printf("\ncps_opt total:   %.2f ms (best of %d per row)\n",
              OptTotal * 1e3, Iters);
  std::printf("arena churn:     %.1f MiB\n", ArenaTotal / 1048576.0);
  std::printf("instr reduction: %.3f%% full corpus, %.3f%% over %zu affected "
              "rows (gate: >= 1%%), %.3f%% over %zu materially affected rows "
              "(gate: >= 3%%)\n",
              Pct(GeoAll), Pct(GeoAffected), InstrAffected.size(),
              Pct(GeoMaterial), InstrMaterial.size());
  std::printf("rule ablation:  ");
  for (size_t A = 0; A < std::size(kAblations); ++A)
    std::printf(" %s +%llu", kAblations[A].Name,
                (unsigned long long)RuleDeltaTotals[A]);
  std::printf(" instructions when disabled\n");
  std::printf("baseline: %s;  per-row ratchet: %s;  convergence: %s\n\n",
              AllMatch ? "exact" : "FAILED", AnyRegressed ? "FAILED" : "ok",
              AnyCapped ? "FAILED" : "ok");

  W.field("opt_total_sec", OptTotal, 6);
  W.field("arena_bytes_total", ArenaTotal);
  W.field("instr_reduction_pct_full", Pct(GeoAll), 4);
  W.field("instr_reduction_pct_affected", Pct(GeoAffected), 4);
  W.field("instr_reduction_pct_material", Pct(GeoMaterial), 4);
  W.field("affected_rows", static_cast<uint64_t>(InstrAffected.size()));
  W.field("material_rows", static_cast<uint64_t>(InstrMaterial.size()));
  W.field("gate_reduction_affected_pct", 1.0, 1);
  W.field("gate_reduction_material_pct", 3.0, 1);
  W.key("ablation_totals").beginObject();
  for (size_t A = 0; A < std::size(kAblations); ++A)
    W.field(kAblations[A].Name, RuleDeltaTotals[A]);
  W.endObject();
  W.field("all_match_baseline", AllMatch);
  W.field("any_row_regressed", AnyRegressed);
  W.field("any_row_capped", AnyCapped);
  W.endObject();

  bool Ok = writeReport(OutPath, W.str()) && AllOk && !InstrAll.empty();
  if (!AllMatch) {
    std::fprintf(stderr, "FAIL: some row differs from the committed "
                         "baseline (corpus/Baseline.cpp)\n");
    Ok = false;
  }
  if (AnyRegressed) {
    std::fprintf(stderr, "FAIL: some row executes more instructions than "
                         "its base cadence\n");
    Ok = false;
  }
  if (AnyCapped) {
    std::fprintf(stderr, "FAIL: some row hit the phase safety ceiling\n");
    Ok = false;
  }
  if (Pct(GeoAffected) < 1.0) {
    std::fprintf(stderr,
                 "FAIL: geomean reduction over affected rows %.3f%% < 1%%\n",
                 Pct(GeoAffected));
    Ok = false;
  }
  if (InstrMaterial.empty() || Pct(GeoMaterial) < 3.0) {
    std::fprintf(
        stderr,
        "FAIL: geomean reduction over materially affected rows %.3f%% < 3%%\n",
        Pct(GeoMaterial));
    Ok = false;
  }
  return Ok ? 0 : 1;
}
