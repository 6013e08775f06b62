//===- perfbench/src/Workloads.cpp - The benchmark's three workloads -------===//

#include "Workloads.h"

#include "Pipeline.h"

#include "corpus/Corpus.h"
#include "driver/CompileCache.h"
#include "driver/PreludeSnapshot.h"
#include "native/NativeBackend.h"
#include "native/NativeEmit.h"
#include "obs/Trace.h"
#include "server/Client.h"
#include "server/Server.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ftw.h>
#include <malloc.h>
#include <optional>
#include <random>
#include <sched.h>
#include <string_view>
#include <sys/resource.h>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

using namespace smltc;
using namespace perfbench;

void RunResult::fail(const std::string &Msg) {
  ++Failed;
  if (Errors.size() < 20)
    Errors.push_back(Msg);
}

namespace {

/// A percentile is reported only with at least ten samples beyond it, so
/// p99 needs 1000; every timed loop runs until it has them.
constexpr size_t kMinTailSamples = 1000;

/// Machine-speed samples: five right after set-up, then one after every
/// pass or segment and one every interval within a longer pass.
constexpr int kSetupSpeedSamples = 5;
constexpr double kSpeedIntervalSec = 0.5;

Clock::duration seconds(double Sec) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(Sec));
}

double since(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return std::nan("");
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank quantile; NaN when fewer than ten samples lie beyond it.
double tailQuantile(std::vector<double> V, double Q) {
  size_t N = V.size();
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(N)));
  if (N == 0 || Rank == 0 || N - Rank < 10)
    return std::nan("");
  std::nth_element(V.begin(), V.begin() + (Rank - 1), V.end());
  return V[Rank - 1];
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

class Rng {
public:
  explicit Rng(uint64_t Seed) : G(Seed) {}
  uint64_t next() { return G(); }
  size_t below(size_t N) { return static_cast<size_t>(G() % N); }
  double unit() { return static_cast<double>(G() >> 11) * 0x1.0p-53; }
  template <class T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  std::mt19937_64 G;
};

struct MatrixJob {
  const BenchmarkProgram *B;
  CompilerOptions Opts;
};

/// The 12 programs x 6 variants, program-major in the paper's order.
std::vector<MatrixJob> matrixJobs() {
  size_t NV = 0;
  const CompilerOptions *Variants = CompilerOptions::allVariants(NV);
  std::vector<MatrixJob> Jobs;
  for (const BenchmarkProgram &B : benchmarkCorpus())
    for (size_t V = 0; V < NV; ++V)
      Jobs.push_back({&B, Variants[V]});
  return Jobs;
}

std::string jobName(const MatrixJob &J) {
  return std::string(J.B->Name) + "/" + J.Opts.VariantName;
}

std::vector<size_t> iota(size_t N) {
  std::vector<size_t> V(N);
  for (size_t I = 0; I < N; ++I)
    V[I] = I;
  return V;
}

void timeSnapshot(RunResult &R) {
  auto T = Clock::now();
  if (!PreludeSnapshot::get())
    R.Errors.push_back("the prelude snapshot failed verification");
  R.Metrics["driver.prelude_snapshot_s"] = since(T);
}

/// Ends set-up: records setup_s and the machine speed right after it.
/// Returns false for a set-up-only run, which ends here.
bool endSetup(const RunArgs &Args, RunResult &R) {
  R.SetupSec = since(kProcessStart);
  for (int I = 0; I < kSetupSpeedSamples; ++I)
    R.Speed.sample();
  R.SetupSpeed = R.Speed.factor();
  return !Args.SetupOnly;
}

/// One reference compile per matrix job: the bytes and counters every
/// later compile of the job must reproduce.
struct CompileRef {
  TmProgram Program;
  std::string Bytes;
  CompileMetrics M;
};

bool compileReferences(const std::vector<MatrixJob> &Jobs,
                       std::vector<CompileRef> &Refs, RunResult &R) {
  Refs.resize(Jobs.size());
  uint64_t Words = 0;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    CompileOutput C = Compiler::compile(Jobs[I].B->Source, Jobs[I].Opts);
    if (!C.Ok) {
      R.Errors.push_back(jobName(Jobs[I]) + ": " + C.Errors);
      return false;
    }
    Refs[I].Bytes = programBytes(C.Program);
    Refs[I].Program = std::move(C.Program);
    Refs[I].M = C.Metrics;
    Words += C.Metrics.CodeSize;
  }
  R.Exact["code_words"] = Words;
  return true;
}

/// Empty when \p C reproduces the reference bit for bit.
std::string checkCompile(const CompileOutput &C, const CompileRef &Ref) {
  if (!C.Ok)
    return "compile failed: " + C.Errors;
  const CompileMetrics &A = C.Metrics, &B = Ref.M;
  if (A.CodeSize != B.CodeSize || A.LexpNodes != B.LexpNodes ||
      A.CpsNodesBeforeOpt != B.CpsNodesBeforeOpt ||
      A.CpsNodesAfterOpt != B.CpsNodesAfterOpt ||
      A.Opt.Rounds != B.Opt.Rounds || A.ClosuresBuilt != B.ClosuresBuilt ||
      A.LtyInterned != B.LtyInterned || A.LtyAllocated != B.LtyAllocated ||
      A.CoerceMemoHits != B.CoerceMemoHits)
    return "compile counters differ from the reference compile";
  if (programBytes(C.Program) != Ref.Bytes)
    return "program bytes differ from the reference compile";
  return std::string();
}

uint64_t rulesFired(const CpsOptStats &S) {
  // CensusFlattened is a subset of KnownFnsFlattened and
  // WrapCancelLoopCarried a subset of WrapCancelChains.
  return S.DeadRemoved + S.SelectsFolded + S.RecordsCopyEliminated +
         S.FloatBoxesReused + S.BranchesFolded + S.ConstantsFolded +
         S.InlinedOnce + S.InlinedSmall + S.EtaConts + S.KnownFnsFlattened +
         S.EtaFuns + S.WrapCancelChains + S.HoistedAllocs;
}

/// The compile-side counts of the matrix, exact by construction.
void addCompileCounts(const std::vector<CompileRef> &Refs, RunResult &R) {
  uint64_t Lexp = 0, Before = 0, After = 0, Phases = 0, Rules = 0,
           Closures = 0, Interned = 0, Allocated = 0, MemoHits = 0,
           MemoLookups = 0;
  for (const CompileRef &Ref : Refs) {
    const CompileMetrics &M = Ref.M;
    Lexp += M.LexpNodes;
    Before += M.CpsNodesBeforeOpt;
    After += M.CpsNodesAfterOpt;
    Phases += static_cast<uint64_t>(M.Opt.Rounds);
    Rules += rulesFired(M.Opt);
    Closures += M.ClosuresBuilt;
    Interned += M.LtyInterned;
    Allocated += M.LtyAllocated;
    MemoHits += M.CoerceMemoHits;
    MemoLookups += M.CoerceMemoHits + M.CoerceMemoMisses;
  }
  R.Exact["lexp.nodes"] = Lexp;
  R.Exact["cps.nodes_before_opt"] = Before;
  R.Exact["cps.nodes_after_opt"] = After;
  R.Exact["cps.opt_phases"] = Phases;
  R.Exact["cps.rules_fired"] = Rules;
  R.Exact["closure.closures_built"] = Closures;
  R.Metrics["lexp.coerce_memo_hit_ratio"] =
      MemoLookups ? static_cast<double>(MemoHits) / MemoLookups : 0;
  R.Metrics["lty.hashcons_ratio"] =
      Allocated ? static_cast<double>(Interned) / Allocated : 0;
}

//===----------------------------------------------------------------------===//
// corpus_compile
//===----------------------------------------------------------------------===//

bool corpusCompile(const RunArgs &Args, RunResult &R) {
  timeSnapshot(R);
  std::vector<MatrixJob> Jobs = matrixJobs();
  std::vector<CompileRef> Refs;
  if (!compileReferences(Jobs, Refs, R))
    return false;
  if (!endSetup(Args, R))
    return true;

  const size_t N = Jobs.size();
  Rng G(Args.Seed);
  std::vector<size_t> Order = iota(N);
  std::vector<double> LatMs, Rates;
  std::map<std::string, std::vector<double>> Layer; // metric -> per pass
  std::vector<double> Overhead, TraceRatio;
  auto Deadline = Clock::now() + seconds(Args.Seconds);
  for (uint64_t Pass = 0;
       Clock::now() < Deadline || LatMs.size() < kMinTailSamples; ++Pass) {
    G.shuffle(Order);
    double PassSec = 0;
    auto PassStart = Clock::now();
    size_t LatBase = LatMs.size();
    SpanLog *Log = Args.Trace ? &R.Spans.emplace_back() : nullptr;
    double RootSec = 0;
    for (size_t I : Order) {
      const MatrixJob &J = Jobs[I];
      R.Speed.sampleEvery(kSpeedIntervalSec);
      ++R.Attempted;
      auto Plain = [&]() {
        auto T0 = Clock::now();
        CompileOutput C = Compiler::compile(J.B->Source, J.Opts);
        double Sec = since(T0);
        PassSec += Sec;
        LatMs.push_back(Sec * 1e3);
        return checkCompile(C, Refs[I]);
      };
      if (!Log) {
        std::string E = Plain();
        if (!E.empty())
          R.fail(jobName(J) + ": " + E);
        continue;
      }
      // Traced: the plain compile and the layer-by-layer composition of
      // the same job, in seeded order; both must match the reference.
      uint64_t JobId = (Pass << 8) | I;
      size_t Root = Log->size();
      auto Traced = [&]() {
        CompileOutput C = compileTraced(J.B->Source, J.Opts, *Log, JobId);
        const SpanRecord &S = Log->records()[Root];
        RootSec += (S.EndNs - S.StartNs) * 1e-9;
        return checkCompile(C, Refs[I]);
      };
      std::string E1, E2;
      if (G.next() & 1) {
        E2 = Traced();
        E1 = Plain();
      } else {
        E1 = Plain();
        E2 = Traced();
      }
      if (!E1.empty() || !E2.empty())
        R.fail(jobName(J) + ": " + (E1.empty() ? "traced " + E2 : E1));
    }
    // The pass's timings at the reference speed, from the kernel samples
    // around it.
    auto PassEnd = Clock::now();
    R.Speed.sample();
    const double F = R.Speed.factorAround(PassStart, PassEnd);
    for (size_t K = LatBase; K < LatMs.size(); ++K)
      LatMs[K] *= F;
    Rates.push_back(static_cast<double>(N) / (PassSec * F));
    if (!Log)
      continue;
    std::map<std::string, double> Sums;
    for (const char *Name : kLayerSpans)
      Sums[std::string(Name) + "_s"] = 0;
    double LayerSec = 0;
    std::vector<int64_t> Self = Log->selfNs();
    for (size_t K = 0; K < Log->size(); ++K) {
      const SpanRecord &S = Log->records()[K];
      if (S.Parent == 0)
        continue;
      Sums[std::string(S.Name) + "_s"] += Self[K] * 1e-9;
      LayerSec += Self[K] * 1e-9;
    }
    for (auto &[Name, Sec] : Sums)
      Layer[Name].push_back(Sec * F);
    Overhead.push_back((PassSec - LayerSec) * F);
    TraceRatio.push_back(RootSec / PassSec - 1);
  }

  R.Metrics["ops_per_s"] = median(Rates);
  R.Metrics["op_ms_p50"] = tailQuantile(LatMs, 0.50);
  R.Metrics["op_ms_p99"] = tailQuantile(LatMs, 0.99);
  addCompileCounts(Refs, R);
  if (Args.Trace) {
    for (auto &[Name, PerPass] : Layer)
      R.Metrics[Name] = median(PerPass);
    R.Metrics["driver.compile_overhead_s"] = median(Overhead);
    R.Metrics["bench.trace_overhead"] = median(TraceRatio);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// corpus_run
//===----------------------------------------------------------------------===//

/// Everything an execution observes; it must repeat exactly on every
/// run of a program, and native must equal the VM.
struct Observed {
  bool Seen = false;
  int64_t Result = 0;
  std::string Output;
  uint64_t Instructions = 0, Cycles = 0, AllocWords = 0, AllocObjects = 0,
           Copied = 0, Collections = 0, Minor = 0, Major = 0, MaxPause = 0;

  static Observed of(const ExecResult &X) {
    Observed O;
    O.Seen = true;
    O.Result = X.Result;
    O.Output = X.Output;
    O.Instructions = X.Instructions;
    O.Cycles = X.Cycles;
    O.AllocWords = X.AllocWords32;
    O.AllocObjects = X.AllocObjects;
    O.Copied = X.GcCopiedWords;
    O.Collections = X.Collections;
    O.Minor = X.Metrics.MinorCollections;
    O.Major = X.Metrics.MajorCollections;
    O.MaxPause = std::max(X.Metrics.MaxMinorPauseWords,
                          X.Metrics.MaxMajorPauseWords);
    return O;
  }
  bool operator==(const Observed &O) const {
    return Result == O.Result && Output == O.Output &&
           Instructions == O.Instructions && Cycles == O.Cycles &&
           AllocWords == O.AllocWords && AllocObjects == O.AllocObjects &&
           Copied == O.Copied && Collections == O.Collections &&
           Minor == O.Minor && Major == O.Major && MaxPause == O.MaxPause;
  }
};

/// Empty when the execution is right: no trap, the pinned checksum, and
/// the same observables as every earlier run of the program.
std::string checkRun(const ExecResult &X, const MatrixJob &J,
                     Observed &Ref) {
  if (!X.Ok || X.Trapped || X.UncaughtException)
    return "execution failed: " + X.TrapMessage;
  if (X.Result != J.B->ExpectedResult)
    return "checksum " + std::to_string(X.Result) + ", expected " +
           std::to_string(J.B->ExpectedResult);
  Observed O = Observed::of(X);
  if (!Ref.Seen)
    Ref = O;
  else if (!(O == Ref))
    return "observables differ between runs";
  return std::string();
}

VmOptions vmOptionsFor(const CompilerOptions &Opts) {
  VmOptions VO;
  VO.UnalignedFloats = Opts.UnalignedFloats;
  return VO;
}

bool isFfb(const MatrixJob &J) {
  return std::string(J.Opts.VariantName) == "sml.ffb";
}

bool corpusRun(const RunArgs &Args, RunResult &R) {
  // Every execute() builds a fresh VM heap (two 8 MiB semispaces and a
  // nursery). A one-shot smltcc run maps and faults in those pages anew,
  // because glibc starts every process with a 128 KiB mmap threshold.
  // Left to itself, the threshold rises as large blocks are freed, and
  // from then on the main arena sometimes keeps the heap between runs and
  // sometimes trims it: heap set-up per pass flips between about 0.2 s
  // (warm pages) and 0.9 s (fresh pages) several times within a process.
  // Holding the threshold at its initial value gives every execute() the
  // state the shipped CLI's one execute() sees.
  ::mallopt(M_MMAP_THRESHOLD, 128 << 10);
  timeSnapshot(R);
  if (!native::nativeAvailable()) {
    R.Errors.push_back("corpus_run needs a C compiler for the native "
                       "backend (cc, or $SMLTCC_CC) and found none");
    return false;
  }
  std::vector<MatrixJob> Jobs = matrixJobs();
  std::vector<CompileRef> Refs;
  if (!compileReferences(Jobs, Refs, R))
    return false;
  // Load the native modules from the benchmark's module cache. The cold
  // build belongs to prepareNative; a cold cache here is an error, so
  // that `cc` never lands in setup_s.
  struct Op {
    size_t Job;
    bool Native;
  };
  std::vector<Op> Ops;
  std::vector<Observed> VmRef(Jobs.size()), NatRef(Jobs.size());
  uint64_t ColdBefore = native::nativeTotals().Compiles.load();
  for (size_t I = 0; I < Jobs.size(); ++I) {
    Ops.push_back({I, false});
    if (!isFfb(Jobs[I]))
      continue;
    Ops.push_back({I, true});
    ExecResult X;
    std::string Err;
    if (!native::executeNative(Refs[I].Program, vmOptionsFor(Jobs[I].Opts),
                               X, Err)) {
      R.Errors.push_back(jobName(Jobs[I]) + ": native: " + Err);
      return false;
    }
    std::string E = checkRun(X, Jobs[I], NatRef[I]);
    if (!E.empty()) {
      R.Errors.push_back(jobName(Jobs[I]) + ": native: " + E);
      return false;
    }
  }
  if (native::nativeTotals().Compiles.load() != ColdBefore) {
    R.Errors.push_back("the native module cache was cold at set-up; "
                       "run the benchmark through perfbench/run.py");
    return false;
  }
  if (!endSetup(Args, R))
    return true;

  Rng G(Args.Seed);
  std::vector<double> LatMs, Rates, VmPass, NatPass, TracedPass, PlainPass;
  std::map<std::string, std::vector<double>> Layer;
  auto Deadline = Clock::now() + seconds(Args.Seconds);
  for (uint64_t Pass = 0;
       Clock::now() < Deadline || LatMs.size() < kMinTailSamples; ++Pass) {
    G.shuffle(Ops);
    auto PassStart = Clock::now();
    size_t LatBase = LatMs.size();
    // A traced run alternates traced and plain passes; the difference in
    // pass wall time is the tracing overhead.
    SpanLog *Log = Args.Trace && Pass % 2 ? &R.Spans.emplace_back() : nullptr;
    double Vm = 0, Nat = 0, Decode = 0, Dispatch = 0, Gc = 0, HeapInit = 0,
           NatExec = 0, NatCall = 0;
    for (const Op &O : Ops) {
      const MatrixJob &J = Jobs[O.Job];
      R.Speed.sampleEvery(kSpeedIntervalSec);
      VmOptions VO = vmOptionsFor(J.Opts);
      uint64_t JobId = (Pass << 8) | O.Job;
      ++R.Attempted;
      ExecResult X;
      std::string Err;
      bool Ran = true;
      auto T0 = Clock::now();
      if (O.Native) {
        std::optional<ScopedSpan> S;
        if (Log)
          S.emplace(*Log, "native.execute", JobId);
        Ran = native::executeNative(Refs[O.Job].Program, VO, X, Err);
      } else {
        std::optional<ScopedSpan> S;
        if (Log)
          S.emplace(*Log, "vm.execute", JobId);
        X = execute(Refs[O.Job].Program, VO);
      }
      double Sec = since(T0);
      LatMs.push_back(Sec * 1e3);
      const VmMetrics &M = X.Metrics;
      if (O.Native) {
        Nat += Sec;
        NatExec += M.ExecSec;
        NatCall += Sec - M.ExecSec;
      } else {
        Vm += Sec;
        Decode += M.DecodeSec;
        Dispatch += M.ExecSec - M.GcSec;
        Gc += M.GcSec;
        HeapInit += Sec - M.DecodeSec - M.ExecSec;
      }
      std::string E = Ran ? checkRun(X, J, O.Native ? NatRef[O.Job]
                                                     : VmRef[O.Job])
                          : Err;
      if (!E.empty())
        R.fail(jobName(J) + (O.Native ? ": native: " : ": vm: ") + E);
    }
    // The pass's timings at the reference speed, from the kernel samples
    // around it.
    auto PassEnd = Clock::now();
    R.Speed.sample();
    const double F = R.Speed.factorAround(PassStart, PassEnd);
    for (size_t K = LatBase; K < LatMs.size(); ++K)
      LatMs[K] *= F;
    Rates.push_back(static_cast<double>(Ops.size()) / ((Vm + Nat) * F));
    (Log ? TracedPass : PlainPass).push_back((Vm + Nat) * F);
    if (Log)
      continue;
    VmPass.push_back(Vm * F);
    NatPass.push_back(Nat * F);
    Layer["vm.decode_s"].push_back(Decode * F);
    Layer["vm.dispatch_s"].push_back(Dispatch * F);
    Layer["vm.gc_s"].push_back(Gc * F);
    Layer["vm.heap_init_s"].push_back(HeapInit * F);
    Layer["native.exec_s"].push_back(NatExec * F);
    Layer["native.call_overhead_s"].push_back(NatCall * F);
    if (!Args.Trace)
      continue;
    // The emitter runs inside every executeNative call; time it alone,
    // outside the pass wall.
    SpanLog &Emit = R.Spans.emplace_back();
    double EmitSec = 0;
    for (const Op &O : Ops) {
      if (!O.Native)
        continue;
      std::string CSrc, Err;
      uint32_t K = Emit.open("native.emit", (Pass << 8) | O.Job);
      bool Ok = native::emitNativeC(Refs[O.Job].Program,
                                    Jobs[O.Job].Opts.UnalignedFloats, CSrc,
                                    Err);
      Emit.close(K);
      const SpanRecord &S = Emit.records()[K];
      EmitSec += (S.EndNs - S.StartNs) * 1e-9;
      if (!Ok)
        R.fail(jobName(Jobs[O.Job]) + ": emitNativeC: " + Err);
    }
    Layer["native.emit_s"].push_back(EmitSec * F);
  }

  // Every variant of a program prints the same output, and native agrees
  // with the VM on every observable.
  uint64_t Cycles = 0, AllocWords = 0, Instructions = 0, Minor = 0,
           Major = 0, Copied = 0, MaxPause = 0;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const Observed &O = VmRef[I];
    if (!O.Seen)
      continue;
    if (O.Output != VmRef[I - I % 6].Output)
      R.fail(jobName(Jobs[I]) + ": output differs from the other variants");
    if (NatRef[I].Seen && !(NatRef[I] == O))
      R.fail(jobName(Jobs[I]) + ": native observables differ from the VM");
    Cycles += O.Cycles;
    AllocWords += O.AllocWords;
    Instructions += O.Instructions;
    Minor += O.Minor;
    Major += O.Major;
    Copied += O.Copied;
    MaxPause = std::max(MaxPause, O.MaxPause);
  }
  R.Exact["vm.cycles"] = Cycles;
  R.Exact["vm.alloc_words"] = AllocWords;
  R.Metrics["ops_per_s"] = median(Rates);
  R.Metrics["op_ms_p50"] = tailQuantile(LatMs, 0.50);
  R.Metrics["op_ms_p99"] = tailQuantile(LatMs, 0.99);
  if (Args.Trace) {
    addCompileCounts(Refs, R);
    R.Exact["vm.instructions"] = Instructions;
    R.Exact["vm.minor_gcs"] = Minor;
    R.Exact["vm.major_gcs"] = Major;
    R.Exact["vm.copied_words"] = Copied;
    R.Exact["vm.max_pause_words"] = MaxPause;
    R.Metrics["vm.pass_s"] = median(VmPass);
    R.Metrics["native.pass_s"] = median(NatPass);
    for (auto &[Name, PerPass] : Layer)
      R.Metrics[Name] = median(PerPass);
    R.Metrics["bench.trace_overhead"] =
        median(TracedPass) / median(PlainPass) - 1;
    double CcSec = 0;
    if (std::FILE *F = std::fopen("native_cc_s", "r")) {
      if (std::fscanf(F, "%lf", &CcSec) != 1)
        CcSec = 0;
      std::fclose(F);
    }
    R.Metrics["native.cc_s"] = CcSec;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// served_memory, served_disk, served_miss
//===----------------------------------------------------------------------===//

// Each served workload sends requests for one cache tier, and its figures
// are taken over the responses from that tier alone, so no traffic mix
// weights them:
//   served_memory  the 72 matrix jobs, prefilled into an unbounded memory
//                  tier, in seeded random order: every request is a
//                  memory-tier hit.
//   served_disk    the 72 jobs in a seeded cycle against a one-entry memory
//                  tier: a job comes back only after the other 71, by which
//                  time the memory tier has dropped it, so it is read from
//                  the disk tier. (The cache evicts per shard, and a job
//                  alone in its shard stays in memory; those few hits are
//                  attempted and checked but left out of the figures.)
//   served_miss    every request carries a fresh seeded salt declaration,
//                  so it misses, compiles in the batch pool and is written
//                  to both tiers.
constexpr size_t kClients = 2;
constexpr size_t kWorkers = 2;
constexpr double kSegmentSec = 0.5;

/// The CPUs the process may use before runWorkload pins it to one; the
/// checks after a timed loop spread over them again.
cpu_set_t AllCpus;

std::string saltedSource(const MatrixJob &J, uint64_t Salt) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "\nval perfbench_salt = \"%016llx\"\n",
                (unsigned long long)Salt);
  return std::string(J.B->Source) + Buf;
}

int removeEntry(const char *Path, const struct stat *, int, struct FTW *) {
  return ::remove(Path);
}

void removeTree(const std::string &Dir) {
  ::nftw(Dir.c_str(), removeEntry, 16, FTW_DEPTH | FTW_PHYS);
}

/// Runs the compile server on its own thread; stops and joins it on
/// every path out of the workload.
class ServerRunner {
public:
  explicit ServerRunner(server::ServerOptions SO) : Srv(std::move(SO)) {}
  ~ServerRunner() { stop(); }
  ServerRunner(const ServerRunner &) = delete;
  ServerRunner &operator=(const ServerRunner &) = delete;

  bool start(std::string &Err) {
    if (!Srv.start(Err))
      return false;
    Th = std::thread([this] { Srv.run(); });
    return true;
  }
  void stop() {
    if (!Th.joinable())
      return;
    Srv.requestStop();
    Th.join();
  }
private:
  server::CompileServer Srv;
  std::thread Th;
};

/// What a served workload sends.
struct ServedPlan {
  server::WireTier Tier = server::WireTier::Memory;
  std::vector<size_t> Cycle;   ///< served_disk: the seeded job order
  std::atomic<size_t> Next{0}; ///< served_disk: next position, shared
};

struct Sample {
  double Ms = 0;
  double CompileSec = 0; ///< server-side compile seconds (misses)
  double CodecSec = 0;   ///< traced requests: encode + decode
  server::WireTier Tier = server::WireTier::Miss;
  bool Traced = false;
};

struct SaltedCheck {
  size_t Job;
  uint64_t Salt;
  uint64_t BytesHash;
};

/// One client connection and everything it observed.
struct ClientState {
  explicit ClientState(uint64_t Seed) : G(Seed) {}

  server::Client Cl;
  bool Broken = false; ///< a transport failure ended the connection
  Rng G;
  uint64_t Sent = 0;
  std::vector<Sample> Samples;
  std::vector<SaltedCheck> Salted;
  std::vector<std::string> Errors;
  uint64_t Attempted = 0, Failed = 0, QueueFull = 0;
  SpanLog Spans;

  void fail(const std::string &Msg) {
    ++Failed;
    if (Errors.size() < 20)
      Errors.push_back(Msg);
  }
};

/// One compile round trip composed from the protocol layer's functions,
/// with a span around the encode, the wait and the decode. Mirrors
/// Client::compile.
bool tracedCompile(server::Client &Cl, server::CompileRequest Req,
                   server::CompileResponse &Resp, SpanLog &Log,
                   std::string &Err) {
  using namespace server;
  ScopedSpan Root(Log, "client.request", Req.RequestId);
  std::string Bytes;
  {
    ScopedSpan S(Log, "server.encode", Req.RequestId);
    Req.CacheKeyHash =
        fnv1a64(canonicalJobKey(Req.Source, Req.Opts, Req.WithPrelude));
    obs::TraceContext Ctx = obs::mintTraceContext();
    Req.TraceIdHi = Ctx.TraceIdHi;
    Req.TraceIdLo = Ctx.TraceIdLo;
    Req.ParentSpanId = Ctx.SpanId;
    Bytes = encodeFrame(MsgType::CompileReq, encodeCompileRequest(Req));
  }
  Frame F;
  {
    ScopedSpan S(Log, "server.wait", Req.RequestId);
    if (!Cl.sendRaw(Bytes, Err) || !Cl.recvFrame(F, Err))
      return false;
  }
  ScopedSpan S(Log, "server.decode", Req.RequestId);
  if (F.Type == MsgType::Error) {
    ErrorMsg E;
    Err = decodeError(F.Payload, E) ? statusName(E.St) : "bad error frame";
    return false;
  }
  if (F.Type != MsgType::CompileResp) {
    Err = "unexpected frame type";
    return false;
  }
  return decodeCompileResponse(F.Payload, Resp, Err);
}

/// Sends requests back to back until \p End: the closed loop of one
/// client for one segment of the run.
void clientSegment(size_t C, bool Trace, const std::vector<MatrixJob> &Jobs,
                   const std::vector<CompileRef> &Refs, ServedPlan &Plan,
                   Clock::time_point End, ClientState &L) {
  using namespace server;
  std::string Err;
  while (!L.Broken && Clock::now() < End) {
    uint64_t N = L.Sent++;
    bool Salted = Plan.Tier == WireTier::Miss;
    size_t Job = Plan.Tier == WireTier::Disk
                     ? Plan.Cycle[Plan.Next++ % Plan.Cycle.size()]
                     : L.G.below(Jobs.size());
    uint64_t Salt = Salted ? L.G.next() : 0;
    CompileRequest Req;
    Req.RequestId = (static_cast<uint64_t>(C + 1) << 40) | (N + 1);
    Req.Opts = Jobs[Job].Opts;
    Req.Source = Salted ? saltedSource(Jobs[Job], Salt) : Jobs[Job].B->Source;
    Sample S;
    S.Traced = Trace && N % 2;
    size_t SpanBase = L.Spans.size();
    CompileResponse Resp;
    ++L.Attempted;
    auto T0 = Clock::now();
    bool Ok = S.Traced ? tracedCompile(L.Cl, Req, Resp, L.Spans, Err)
                       : L.Cl.compile(Req, Resp, Err);
    auto T1 = Clock::now();
    std::string Name = jobName(Jobs[Job]) + (Salted ? " (salted)" : "");
    if (!Ok) {
      L.fail(Name + ": transport: " + Err);
      L.Broken = true;
      return;
    }
    if (Resp.St != Status::Ok) {
      if (Resp.St == Status::QueueFull)
        ++L.QueueFull;
      L.fail(Name + ": status " + statusName(Resp.St) + " " + Resp.Errors);
      continue;
    }
    if (Salted && Resp.Tier != WireTier::Miss) {
      L.fail(Name + ": a fresh source was answered from a cache tier");
      continue;
    }
    S.Ms = std::chrono::duration<double, std::milli>(T1 - T0).count();
    S.CompileSec = Resp.CompileSec;
    S.Tier = Resp.Tier;
    for (size_t K = SpanBase; K < L.Spans.size(); ++K) {
      const SpanRecord &R = L.Spans.records()[K];
      std::string_view SpanName(R.Name);
      if (SpanName == "server.encode" || SpanName == "server.decode")
        S.CodecSec += (R.EndNs - R.StartNs) * 1e-9;
    }
    L.Samples.push_back(S);
    std::string Bytes = programBytes(Resp.Program);
    if (Salted)
      L.Salted.push_back({Job, Salt, fnv1a64(Bytes)});
    else if (Bytes != Refs[Job].Bytes)
      L.fail(Name + ": served program differs from the local compile");
  }
}

/// Every fresh compile the server made must equal a local compile of the
/// same salted source. The compiles run after the timed loop, on all the
/// process's CPUs.
void checkSalted(const std::vector<MatrixJob> &Jobs,
                 const std::vector<SaltedCheck> &Salted, RunResult &R) {
  std::atomic<size_t> Next{0};
  std::vector<std::string> Bad(Salted.size());
  {
    std::vector<std::thread> Ts;
    for (size_t T = 0; T < kWorkers; ++T)
      Ts.emplace_back([&] {
        ::sched_setaffinity(0, sizeof(AllCpus), &AllCpus);
        for (size_t I; (I = Next++) < Salted.size();) {
          const SaltedCheck &S = Salted[I];
          CompileOutput C = Compiler::compile(
              saltedSource(Jobs[S.Job], S.Salt), Jobs[S.Job].Opts);
          if (!C.Ok || fnv1a64(programBytes(C.Program)) != S.BytesHash)
            Bad[I] = jobName(Jobs[S.Job]) +
                     " (salted): served program differs from the local "
                     "compile";
        }
      });
    for (std::thread &T : Ts)
      T.join();
  }
  for (std::string &E : Bad)
    if (!E.empty())
      R.fail(E);
}

bool served(const RunArgs &Args, server::WireTier Tier, RunResult &R) {
  using namespace server;
  R.Speed = MachineSpeed(/*WithSwitches=*/true);
  timeSnapshot(R);
  std::vector<MatrixJob> Jobs = matrixJobs();
  std::vector<CompileRef> Refs;
  if (!compileReferences(Jobs, Refs, R))
    return false;

  // Socket and disk tier live in a per-process directory under the
  // working directory; relative paths keep the socket path short.
  const std::string Dir = "served-" + std::to_string(::getpid());
  removeTree(Dir);
  if (::mkdir(Dir.c_str(), 0700) != 0) {
    R.Errors.push_back("cannot create " + Dir);
    return false;
  }
  struct DirGuard {
    std::string D;
    ~DirGuard() { removeTree(D); }
  } Guard{Dir};
  ServerOptions SO;
  SO.SocketPath = Dir + "/s.sock";
  SO.DiskCachePath = Dir + "/cache";
  SO.NumWorkers = kWorkers;
  // served_miss writes a new entry with every request; caps on both tiers
  // keep its memory and disk use from growing with the run's length.
  SO.MaxMemCacheEntries = Tier == WireTier::Disk   ? 1
                          : Tier == WireTier::Miss ? Jobs.size()
                                                   : 0;
  if (Tier == WireTier::Miss)
    SO.DiskCacheCapBytes = 32ull << 20;
  ServerRunner Srv(SO);
  std::string Err;
  if (!Srv.start(Err)) {
    R.Errors.push_back("server start: " + Err);
    return false;
  }
  std::vector<ClientState> Clients;
  Clients.reserve(kClients);
  for (size_t C = 0; C < kClients; ++C) {
    Clients.emplace_back(Args.Seed * 0x9E3779B97F4A7C15ull + C + 1);
    if (!Clients.back().Cl.connect(SO.SocketPath, Err)) {
      R.Errors.push_back("connect: " + Err);
      return false;
    }
  }
  // Prefill the cache tiers with every job; misses need none.
  for (size_t I = 0; Tier != WireTier::Miss && I < Jobs.size(); ++I) {
    CompileRequest Req;
    Req.Opts = Jobs[I].Opts;
    Req.Source = Jobs[I].B->Source;
    CompileResponse Resp;
    if (!Clients[0].Cl.compile(Req, Resp, Err) || Resp.St != Status::Ok ||
        programBytes(Resp.Program) != Refs[I].Bytes) {
      R.Errors.push_back(jobName(Jobs[I]) + ": prefill failed " + Err);
      return false;
    }
  }
  if (!endSetup(Args, R))
    return true;

  ServedPlan Plan;
  Plan.Tier = Tier;
  Plan.Cycle = iota(Jobs.size());
  Rng(Args.Seed).shuffle(Plan.Cycle);
  // The loop runs in segments; between two, every client waits while the
  // machine-speed kernel runs. Throughput is the median over segments of
  // the responses from the workload's tier per second.
  auto InTier = [&] {
    size_t N = 0;
    for (ClientState &L : Clients)
      for (const Sample &S : L.Samples)
        N += S.Tier == Tier;
    return N;
  };
  std::vector<double> Rates;
  // A run that still lacks the tail samples at twice its length stops; its
  // percentiles then read as not measured.
  auto Deadline = Clock::now() + seconds(Args.Seconds);
  auto HardStop = Deadline + seconds(Args.Seconds);
  for (size_t Done = 0; Clock::now() < Deadline ||
                        (Done < kMinTailSamples && Clock::now() < HardStop);) {
    size_t Before = InTier();
    std::vector<size_t> First;
    for (ClientState &L : Clients)
      First.push_back(L.Samples.size());
    auto T0 = Clock::now();
    auto End = T0 + seconds(kSegmentSec);
    std::vector<std::thread> Ts;
    for (size_t C = 0; C < kClients; ++C)
      Ts.emplace_back([&, C] {
        clientSegment(C, Args.Trace, Jobs, Refs, Plan, End, Clients[C]);
      });
    for (std::thread &T : Ts)
      T.join();
    auto T1 = Clock::now();
    // The segment's timings at the reference speed, from the kernel
    // samples around it.
    R.Speed.sample();
    const double F = R.Speed.factorAround(T0, T1);
    for (size_t C = 0; C < kClients; ++C)
      for (size_t K = First[C]; K < Clients[C].Samples.size(); ++K) {
        Sample &S = Clients[C].Samples[K];
        S.Ms *= F;
        S.CompileSec *= F;
        S.CodecSec *= F;
      }
    Done = InTier();
    Rates.push_back(static_cast<double>(Done - Before) /
                    (std::chrono::duration<double>(T1 - T0).count() * F));
    bool Broken = false;
    for (ClientState &L : Clients)
      Broken |= L.Broken;
    if (Broken)
      break;
  }
  Srv.stop();

  std::vector<SaltedCheck> Salted;
  std::vector<double> Plain, Traced, MissWait, CompileSec, Codec;
  size_t InTierCount = 0;
  uint64_t QueueFull = 0;
  for (ClientState &L : Clients) {
    R.Attempted += L.Attempted;
    R.Failed += L.Failed;
    QueueFull += L.QueueFull;
    Salted.insert(Salted.end(), L.Salted.begin(), L.Salted.end());
    for (std::string &E : L.Errors)
      if (R.Errors.size() < 20)
        R.Errors.push_back(std::move(E));
    for (const Sample &S : L.Samples) {
      if (S.Traced)
        Codec.push_back(S.CodecSec);
      if (S.Tier != Tier)
        continue;
      ++InTierCount;
      if (S.Tier == WireTier::Miss) {
        CompileSec.push_back(S.CompileSec);
        MissWait.push_back(S.Ms - S.CompileSec * 1e3);
      }
      (S.Traced ? Traced : Plain).push_back(S.Ms);
    }
    if (Args.Trace)
      R.Spans.push_back(std::move(L.Spans));
  }
  checkSalted(Jobs, Salted, R);

  R.Metrics["ops_per_s"] = median(Rates);
  R.Metrics["op_ms_p50"] = tailQuantile(Plain, 0.50);
  R.Metrics["op_ms_p99"] = tailQuantile(Plain, 0.99);
  if (Args.Trace) {
    static const char *TierMetric[] = {"server.miss_ms_p50",
                                       "server.memory_hit_ms_p50",
                                       "server.disk_hit_ms_p50"};
    R.Metrics[TierMetric[static_cast<size_t>(Tier)]] = median(Plain);
    R.Metrics["server.tier_share"] =
        static_cast<double>(InTierCount) /
        static_cast<double>(std::max<uint64_t>(R.Attempted, 1));
    R.Metrics["server.codec_s"] = median(Codec);
    R.Metrics["server.queue_full"] = static_cast<double>(QueueFull);
    if (Tier == WireTier::Miss) {
      R.Metrics["server.compile_s"] = median(CompileSec);
      R.Metrics["server.miss_wait_ms_p50"] = median(MissWait);
    }
    R.Metrics["bench.trace_overhead"] = median(Traced) / median(Plain) - 1;
  }
  return true;
}

} // namespace

bool perfbench::runWorkload(const RunArgs &Args, RunResult &R) {
  // The workload and every thread it starts run on the core the process
  // started on, beside the machine-speed kernel. On a shared host a
  // request's hand-offs between threads on different cores wait for each
  // core to be scheduled, which made served throughput swing by half
  // between runs; on one core it tracks the kernel.
  ::sched_getaffinity(0, sizeof(AllCpus), &AllCpus);
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(std::max(::sched_getcpu(), 0), &One);
  ::sched_setaffinity(0, sizeof(One), &One);
  bool Ran;
  if (Args.Workload == "corpus_compile")
    Ran = corpusCompile(Args, R);
  else if (Args.Workload == "corpus_run")
    Ran = corpusRun(Args, R);
  else if (Args.Workload == "served_memory")
    Ran = served(Args, server::WireTier::Memory, R);
  else if (Args.Workload == "served_disk")
    Ran = served(Args, server::WireTier::Disk, R);
  else if (Args.Workload == "served_miss")
    Ran = served(Args, server::WireTier::Miss, R);
  else {
    R.Errors.push_back("unknown workload '" + Args.Workload + "'");
    return false;
  }
  R.Metrics["peak_rss_mb"] = peakRssMb();
  // The workloads report the timed loop's timings at the reference speed
  // already; set-up timings use the speed measured right after set-up.
  // native.cc_s is the build of another process and stays raw.
  R.Metrics["bench.machine_speed"] = R.Speed.factor();
  R.Metrics["driver.prelude_snapshot_s"] *= R.SetupSpeed;
  R.SetupSec *= R.SetupSpeed;
  return Ran;
}

bool perfbench::prepareNative(std::string &Err) {
  if (!native::nativeAvailable()) {
    Err = "no C compiler for the native backend (cc, or $SMLTCC_CC)";
    return false;
  }
  std::vector<MatrixJob> Jobs;
  for (const MatrixJob &J : matrixJobs())
    if (isFfb(J))
      Jobs.push_back(J);
  std::vector<TmProgram> Programs;
  for (const MatrixJob &J : Jobs) {
    CompileOutput C = Compiler::compile(J.B->Source, J.Opts);
    if (!C.Ok) {
      Err = jobName(J) + ": " + C.Errors;
      return false;
    }
    Programs.push_back(std::move(C.Program));
  }
  auto T0 = Clock::now();
  std::atomic<size_t> Next{0};
  std::vector<std::string> Errs(Jobs.size());
  size_t NT = std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  {
    std::vector<std::thread> Ts;
    for (size_t T = 0; T < NT; ++T)
      Ts.emplace_back([&] {
        for (size_t I; (I = Next++) < Jobs.size();) {
          ExecResult X;
          if (!native::executeNative(Programs[I], vmOptionsFor(Jobs[I].Opts),
                                     X, Errs[I]))
            Errs[I] = jobName(Jobs[I]) + ": " + Errs[I];
          else if (X.Result != Jobs[I].B->ExpectedResult)
            Errs[I] = jobName(Jobs[I]) + ": wrong native checksum";
        }
      });
    for (std::thread &T : Ts)
      T.join();
  }
  double Sec = since(T0);
  for (const std::string &E : Errs)
    if (!E.empty()) {
      Err = E;
      return false;
    }
  if (native::nativeTotals().Compiles.load() > 0)
    if (std::FILE *F = std::fopen("native_cc_s", "w")) {
      std::fprintf(F, "%.6f\n", Sec);
      std::fclose(F);
    }
  return true;
}
