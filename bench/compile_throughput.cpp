//===- bench/compile_throughput.cpp - Batch-compilation scaling -----------------===//
//
// Measures the batch engine on the full Figure 7/8 workload: the twelve
// corpus benchmarks compiled under all six variants (72 jobs).
//
//   1. sequential            (--jobs 1, cache off) -> every job is served
//      by the prelude snapshot, the snapshot is built exactly once, and
//      every program equals its committed corpus-baseline row
//      (corpus/Baseline.cpp: code words and programBytes hash)
//   2. parallel              (--jobs N, cache off)  -> wall-clock speedup,
//      with every generated program verified bit-identical to pass 1
//   3. cold + warm cache     (--jobs N, shared CompileCache) -> hit rate
//
// Usage: compile_throughput [N] [--smoke] [--out=PATH]
//   N         worker threads (default: hardware concurrency, min 4)
//   --smoke   CI smoke run (every gate is exact, so it gates the same)
//   --out     JSON report path (default: BENCH_compile.json)
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "driver/PreludeSnapshot.h"
#include "obs/Json.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace smltc;
using namespace smltc::bench;

int main(int Argc, char **Argv) {
  size_t NumJobs = 0;
  bool Smoke = false;
  std::string OutPath = "BENCH_compile.json";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(Argv[I], "--out=", 6) == 0)
      OutPath = Argv[I] + 6;
    else
      NumJobs = static_cast<size_t>(std::atoi(Argv[I]));
  }
  if (NumJobs == 0) {
    NumJobs = std::thread::hardware_concurrency();
    if (NumJobs < 4)
      NumJobs = 4;
  }

  std::vector<CompileJob> Jobs = corpusMatrixJobs();
  std::printf("compile_throughput: %zu jobs "
              "(12 benchmarks x 6 variants)%s\n\n",
              Jobs.size(), Smoke ? " [smoke]" : "");

  obs::JsonWriter W;
  W.beginObject();
  W.field("bench", "compile_throughput");
  W.field("smoke", Smoke);
  W.field("jobs", static_cast<uint64_t>(Jobs.size()));

  // --- Pass 1: sequential, no cache, checked against the baseline ---
  BatchOptions Seq;
  Seq.NumThreads = 1;
  BatchCompiler SeqBatch(Seq);
  std::vector<CompileOutput> SeqOut = SeqBatch.compileAll(Jobs);
  BatchMetrics SeqM = SeqBatch.lastBatch();
  std::printf("sequential (1 thread):   %6.2fs wall, %5.1f programs/sec\n",
              SeqM.WallSec, SeqM.programsPerSec());
  size_t SnapshotHits = 0, BaselineMismatches = 0;
  double FrontSec = 0;
  size_t NumVariants = 0;
  CompilerOptions::allVariants(NumVariants);
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const CompileOutput &C = SeqOut[I];
    const BaselineRow *Row = baselineRow(
        benchmarkCorpus()[I / NumVariants], Jobs[I].Opts);
    if (C.Metrics.PreludeSnapshotHit)
      ++SnapshotHits;
    if (!C.Ok || !Row || C.Metrics.CodeSize != Row->CodeWords ||
        fnv1a64(programBytes(C.Program)) != Row->ProgramHash)
      ++BaselineMismatches;
    FrontSec += C.Metrics.ParseSec + C.Metrics.ElabSec +
                C.Metrics.PreludeElabSec;
  }
  uint64_t SnapshotBuilds =
      preludeStats().SnapshotBuilds.load(std::memory_order_relaxed);
  const PreludeSnapshot *Snap = PreludeSnapshot::get();
  double BuildSec = Snap ? Snap->buildSeconds() : 0;
  std::printf("prelude snapshot:        %zu/%zu jobs served, %llu build%s "
              "(%.2f ms), front end %.2f ms total\n",
              SnapshotHits, Jobs.size(), (unsigned long long)SnapshotBuilds,
              SnapshotBuilds == 1 ? "" : "s", BuildSec * 1e3, FrontSec * 1e3);
  std::printf("corpus baseline:         %s (%zu mismatches)\n\n",
              BaselineMismatches == 0 ? "EXACT" : "DIFFERS",
              BaselineMismatches);
  W.field("snapshot_hits", static_cast<uint64_t>(SnapshotHits));
  W.field("snapshot_builds", SnapshotBuilds);
  W.field("prelude_snapshot_build_sec", BuildSec, 6);
  W.field("front_end_total_sec", FrontSec, 6);
  W.field("baseline_mismatches", static_cast<uint64_t>(BaselineMismatches));

  // --- Pass 2: parallel, no cache ---
  BatchOptions Par;
  Par.NumThreads = NumJobs;
  BatchCompiler ParBatch(Par);
  std::vector<CompileOutput> ParOut = ParBatch.compileAll(Jobs);
  BatchMetrics ParM = ParBatch.lastBatch();
  std::printf("parallel   (%zu threads): %6.2fs wall, %5.1f programs/sec\n",
              ParBatch.numThreads(), ParM.WallSec, ParM.programsPerSec());

  size_t Mismatches = 0, Failures = 0;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    if (!SeqOut[I].Ok || !ParOut[I].Ok) {
      ++Failures;
      continue;
    }
    if (programBytes(SeqOut[I].Program) != programBytes(ParOut[I].Program))
      ++Mismatches;
  }
  double Speedup = ParM.WallSec > 0 ? SeqM.WallSec / ParM.WallSec : 0;
  std::printf("speedup:                 %6.2fx wall-clock, "
              "code bytes %s (%zu mismatches, %zu failures)\n\n",
              Speedup, Mismatches == 0 && Failures == 0 ? "IDENTICAL" : "DIFFER",
              Mismatches, Failures);

  // --- Pass 3: content-addressed cache, cold then warm ---
  CompileCache Cache;
  BatchOptions Cached;
  Cached.NumThreads = NumJobs;
  Cached.Cache = &Cache;
  BatchCompiler CachedBatch(Cached);
  CachedBatch.compileAll(Jobs);
  BatchMetrics Cold = CachedBatch.lastBatch();
  std::vector<CompileOutput> WarmOut = CachedBatch.compileAll(Jobs);
  BatchMetrics Warm = CachedBatch.lastBatch();
  double HitRate =
      Warm.Jobs > 0 ? 100.0 * static_cast<double>(Warm.CacheHits) /
                          static_cast<double>(Warm.Jobs)
                    : 0;
  std::printf("cache cold:              %6.2fs wall, %zu hits / %zu jobs\n",
              Cold.WallSec, Cold.CacheHits, Cold.Jobs);
  std::printf("cache warm:              %6.2fs wall, %zu hits / %zu jobs "
              "(hit rate %.0f%%)\n",
              Warm.WallSec, Warm.CacheHits, Warm.Jobs, HitRate);

  size_t WarmMismatches = 0;
  for (size_t I = 0; I < Jobs.size(); ++I)
    if (SeqOut[I].Ok && WarmOut[I].Ok &&
        programBytes(SeqOut[I].Program) != programBytes(WarmOut[I].Program))
      ++WarmMismatches;
  std::printf("warm outputs vs baseline: %s\n\n",
              WarmMismatches == 0 ? "IDENTICAL" : "DIFFER");

  std::printf("sequential %s\n", SeqM.toJson().c_str());
  std::printf("parallel   %s\n", ParM.toJson().c_str());
  std::printf("warm-cache %s\n", Warm.toJson().c_str());

  W.field("sequential_wall_sec", SeqM.WallSec, 6);
  W.field("parallel_wall_sec", ParM.WallSec, 6);
  W.field("parallel_threads", static_cast<uint64_t>(ParBatch.numThreads()));
  W.field("parallel_speedup", Speedup, 3);
  W.field("warm_cache_hits", static_cast<uint64_t>(Warm.CacheHits));
  W.field("warm_cache_wall_sec", Warm.WallSec, 6);
  W.endObject();

  bool Ok = writeReport(OutPath, W.str()) && Mismatches == 0 &&
            Failures == 0 && WarmMismatches == 0 && Warm.CacheHits > 0;
  if (SnapshotHits != Jobs.size() || SnapshotBuilds != 1) {
    std::fprintf(stderr,
                 "FAIL: %zu/%zu jobs served by the prelude snapshot, %llu "
                 "builds (want every job, one build)\n",
                 SnapshotHits, Jobs.size(),
                 (unsigned long long)SnapshotBuilds);
    Ok = false;
  }
  if (BaselineMismatches != 0) {
    std::fprintf(stderr, "FAIL: %zu programs differ from the committed "
                         "corpus baseline\n",
                 BaselineMismatches);
    Ok = false;
  }
  return Ok ? 0 : 1;
}
