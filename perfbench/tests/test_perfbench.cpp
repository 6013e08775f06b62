//===- perfbench/tests/test_perfbench.cpp - The benchmark's own tests ------===//
//
// pipeline_fidelity  For all 72 matrix jobs, the layer-by-layer
//                    composition the traced run uses produces a TmProgram
//                    byte-identical to Compiler::compile, with the same
//                    counters. Fails as soon as Compiler::compileImpl
//                    drifts from the benchmark's composition.
// span_tree          Spans nest, share their job id, never outlast their
//                    parent, and self times are never negative; a job's
//                    root self time plus its layers' self times is its
//                    whole duration.
//
// Run through ctest in the benchmark's build tree, or directly.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"
#include "Spans.h"

#include "corpus/Corpus.h"
#include "driver/CompileCache.h"

#include <cstdio>
#include <set>
#include <string>
#include <thread>

using namespace smltc;
using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const std::string &What) {
  if (!Ok) {
    ++Failures;
    std::fprintf(stderr, "FAIL: %s\n", What.c_str());
  }
}

bool sameCounters(const CompileMetrics &A, const CompileMetrics &B) {
  const CpsOptStats &X = A.Opt, &Y = B.Opt;
  return A.CodeSize == B.CodeSize && A.LexpNodes == B.LexpNodes &&
         A.CpsNodesBeforeOpt == B.CpsNodesBeforeOpt &&
         A.CpsNodesAfterOpt == B.CpsNodesAfterOpt &&
         A.ClosuresBuilt == B.ClosuresBuilt &&
         A.LtyInterned == B.LtyInterned &&
         A.LtyAllocated == B.LtyAllocated &&
         A.CoerceMemoHits == B.CoerceMemoHits &&
         A.CoerceMemoMisses == B.CoerceMemoMisses &&
         A.Mtd.VarsGrounded == B.Mtd.VarsGrounded &&
         A.Mtd.BindingsNarrowed == B.Mtd.BindingsNarrowed &&
         X.Rounds == Y.Rounds && X.DeadRemoved == Y.DeadRemoved &&
         X.SelectsFolded == Y.SelectsFolded &&
         X.RecordsCopyEliminated == Y.RecordsCopyEliminated &&
         X.FloatBoxesReused == Y.FloatBoxesReused &&
         X.BranchesFolded == Y.BranchesFolded &&
         X.ConstantsFolded == Y.ConstantsFolded &&
         X.InlinedOnce == Y.InlinedOnce && X.InlinedSmall == Y.InlinedSmall &&
         X.EtaConts == Y.EtaConts &&
         X.KnownFnsFlattened == Y.KnownFnsFlattened &&
         X.EtaFuns == Y.EtaFuns && X.WrapCancelChains == Y.WrapCancelChains &&
         X.HoistedAllocs == Y.HoistedAllocs;
}

void pipelineFidelity() {
  size_t NV = 0;
  const CompilerOptions *Variants = CompilerOptions::allVariants(NV);
  size_t Jobs = 0;
  for (const BenchmarkProgram &B : benchmarkCorpus())
    for (size_t V = 0; V < NV; ++V) {
      std::string Name = std::string(B.Name) + "/" + Variants[V].VariantName;
      CompileOutput Want = Compiler::compile(B.Source, Variants[V]);
      SpanLog Log;
      CompileOutput Got = compileTraced(B.Source, Variants[V], Log, Jobs);
      ++Jobs;
      check(Want.Ok, Name + ": Compiler::compile failed: " + Want.Errors);
      check(Got.Ok, Name + ": traced composition failed: " + Got.Errors);
      check(programBytes(Got.Program) == programBytes(Want.Program),
            Name + ": traced composition emits other program bytes");
      check(sameCounters(Got.Metrics, Want.Metrics),
            Name + ": traced composition reports other counters");
    }
  check(Jobs == 72, "the matrix has 72 jobs, got " + std::to_string(Jobs));
}

void spanTree() {
  const BenchmarkProgram *B = findBenchmark("Life");
  check(B != nullptr, "corpus has Life");
  if (!B)
    return;
  SpanLog Log;
  const CompilerOptions Opts[2] = {CompilerOptions::nrp(),
                                   CompilerOptions::mtd()};
  for (uint64_t Job = 0; Job < 2; ++Job) {
    CompileOutput C = compileTraced(B->Source, Opts[Job], Log, Job + 7);
    check(C.Ok, "traced compile of Life");
  }
  check(Log.validate().empty(), "span tree is sound: " + Log.validate());

  const std::vector<SpanRecord> &Recs = Log.records();
  std::vector<int64_t> Self = Log.selfNs();
  std::set<std::string> Layers(std::begin(kLayerSpans), std::end(kLayerSpans));
  size_t Roots = 0;
  for (size_t I = 0; I < Recs.size(); ++I) {
    const SpanRecord &R = Recs[I];
    check(Self[I] >= 0, std::string(R.Name) + ": negative self time");
    if (R.Parent == 0) {
      ++Roots;
      check(std::string(R.Name) == "driver.compile", "root is driver.compile");
      // Root self plus the children's durations is the root's duration.
      int64_t Kids = 0;
      std::set<std::string> Seen;
      for (size_t K = I + 1; K < Recs.size() && Recs[K].Parent != 0; ++K) {
        check(Recs[K].Parent == I + 1, "layer spans are direct children");
        check(Recs[K].Job == R.Job, "children share the root's job id");
        check(Recs[K].StartNs >= R.StartNs && Recs[K].EndNs <= R.EndNs,
              "children never outlast their parent");
        Kids += Recs[K].EndNs - Recs[K].StartNs;
        Seen.insert(Recs[K].Name);
      }
      check(Self[I] + Kids == R.EndNs - R.StartNs,
            "root self plus layer time is the compile's duration");
      bool Mtd = R.Job == 8;
      for (const std::string &L : Layers)
        check(Seen.count(L) == (L != "elab.mtd" || Mtd ? 1u : 0u),
              "job " + std::to_string(R.Job) + " span set, layer " + L);
    } else {
      check(Layers.count(R.Name) == 1,
            std::string("unexpected span ") + R.Name);
    }
  }
  check(Roots == 2, "one root per job");

  // Overlapping children are counted once, and a parent's self time
  // excludes exactly the time its children cover.
  SpanLog Nested;
  uint32_t Root = Nested.open("root", 1);
  uint32_t A = Nested.open("a", 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  uint32_t AA = Nested.open("a.a", 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  Nested.close(AA);
  Nested.close(A);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  Nested.close(Root);
  check(Nested.validate().empty(), "nested spans are sound");
  std::vector<int64_t> S = Nested.selfNs();
  const std::vector<SpanRecord> &N = Nested.records();
  auto Dur = [&](uint32_t I) { return N[I].EndNs - N[I].StartNs; };
  check(S[Root] == Dur(Root) - Dur(A), "root self excludes its child");
  check(S[A] == Dur(A) - Dur(AA), "child self excludes the grandchild");
  check(S[AA] == Dur(AA), "a leaf's self time is its duration");
  check(S[Root] >= 2000000 && S[A] >= 2000000 && S[AA] >= 2000000,
        "self times cover the sleeps");
}

} // namespace

int main() {
  pipelineFidelity();
  spanTree();
  if (Failures) {
    std::fprintf(stderr, "perfbench_tests: %d failure(s)\n", Failures);
    return 1;
  }
  std::printf("perfbench_tests: pipeline_fidelity and span_tree passed\n");
  return 0;
}
