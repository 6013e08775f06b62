//===- perfbench/src/Pipeline.cpp - The compile pipeline, one span per layer ===//

#include "Pipeline.h"

#include "ast/Parser.h"
#include "closure/Closure.h"
#include "cps/CpsCheck.h"
#include "cps/CpsConvert.h"
#include "driver/PreludeSnapshot.h"
#include "elab/Elaborator.h"
#include "lexp/LexpCheck.h"
#include "lexp/Translate.h"
#include "support/Diagnostics.h"
#include "support/StringInterner.h"

#include <functional>
#include <optional>
#include <pthread.h>
#include <vector>

using namespace smltc;
using namespace perfbench;

const char *const perfbench::kLayerSpans[10] = {
    "ast.parse",   "elab.elaborate", "elab.mtd",        "lexp.translate",
    "lexp.check",  "cps.convert",    "cps.check",       "cps.opt",
    "closure.convert", "codegen.gen"};

namespace {

/// Runs \p Fn on a thread with a 1 GiB stack, as `Compiler::compile`
/// does. Returns false when the thread could not be created and Fn ran
/// on the caller's stack instead.
bool runOnBigStack(const std::function<void()> &Fn) {
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, 1ull << 30);
  pthread_t Tid;
  auto Trampoline = [](void *P) -> void * {
    (*static_cast<const std::function<void()> *>(P))();
    return nullptr;
  };
  bool BigStack =
      pthread_create(&Tid, &Attr, Trampoline,
                     const_cast<std::function<void()> *>(&Fn)) == 0;
  if (BigStack)
    pthread_join(Tid, nullptr);
  else
    Fn();
  pthread_attr_destroy(&Attr);
  return BigStack;
}

/// The body of Compiler::compileImpl for the snapshot path, with a span
/// around each layer call. Bookkeeping the driver does between layers
/// (node counts, statistics) stays outside the layer spans, so it lands
/// in the root's self time as driver overhead.
CompileOutput compileLayers(const std::string &Source,
                            const CompilerOptions &Opts, SpanLog &Log,
                            uint64_t Job) {
  CompileOutput Out;
  Arena A;
  StringInterner Interner;
  DiagnosticEngine Diags;

  const PreludeSnapshot *Snap = PreludeSnapshot::get();
  if (!Snap) {
    Out.Errors = "perfbench: the prelude snapshot is unavailable";
    return Out;
  }
  const PreludeLayer *Layer = &Snap->layer(Opts.Mtd);
  Out.Metrics.PreludeSnapshotHit = true;
  preludeStats().SnapshotHits.fetch_add(1, std::memory_order_relaxed);
  Interner.setBase(&Snap->interner());
  TypeContext Types(A, Interner, *Layer->Types);

  std::optional<Parser> P;
  ast::Program Raw;
  {
    ScopedSpan S(Log, "ast.parse", Job);
    P.emplace(Source, A, Interner, Diags);
    Raw = P->parseProgram();
  }
  std::optional<Elaborator> ElabOpt;
  AProgram Prog;
  {
    ScopedSpan S(Log, "elab.elaborate", Job);
    ElabOpt.emplace(A, Types, Interner, Diags, Layer->Seed);
    Prog = ElabOpt->elaborate(Raw);
  }
  Elaborator &Elab = *ElabOpt;
  if (Diags.hasErrors()) {
    Out.Errors = Diags.render();
    return Out;
  }
  if (Opts.Mtd) {
    {
      ScopedSpan S(Log, "elab.mtd", Job);
      Out.Metrics.Mtd = runMtd(Prog, Types, A);
    }
    Out.Metrics.Mtd.VarsGrounded += Layer->Mtd.VarsGrounded;
    Out.Metrics.Mtd.BindingsNarrowed += Layer->Mtd.BindingsNarrowed;
  }
  std::vector<ADec *> All;
  All.reserve(Layer->Prog.Decs.size() + Prog.Decs.size());
  for (ADec *D : Layer->Prog.Decs)
    All.push_back(D);
  for (ADec *D : Prog.Decs)
    All.push_back(D);
  Prog.Decs = Span<ADec *>::copy(A, All);

  std::optional<LtyContext> LCOpt;
  std::optional<Translator> TransOpt;
  Lexp *Lambda;
  {
    ScopedSpan S(Log, "lexp.translate", Job);
    LCOpt.emplace(A, Opts.HashConsLty);
    BuiltinExns Exns;
    Exns.Match = Elab.MatchExn;
    Exns.Bind = Elab.BindExn;
    Exns.Div = Elab.DivExn;
    Exns.Subscript = Elab.SubscriptExn;
    Exns.Size = Elab.SizeExn;
    Exns.Overflow = Elab.OverflowExn;
    Exns.Chr = Elab.ChrExn;
    TransOpt.emplace(A, Types, *LCOpt, Opts, Exns, Diags);
    Lambda = TransOpt->translate(Prog);
  }
  LtyContext &LC = *LCOpt;
  if (Diags.hasErrors()) {
    Out.Errors = Diags.render();
    return Out;
  }
  Out.Metrics.LexpNodes = countLexpNodes(Lambda);
  Out.Metrics.LtyInterned = LC.internedCount();
  Out.Metrics.LtyAllocated = LC.allocatedCount();
  Out.Metrics.CoerceMemoHits = TransOpt->coercer().memoHits();
  Out.Metrics.CoerceMemoMisses = TransOpt->coercer().memoMisses();

  LexpCheckResult LCheck;
  {
    ScopedSpan S(Log, "lexp.check", Job);
    LCheck = checkLexp(Lambda, LC);
  }
  if (!LCheck.Ok) {
    Out.Errors = "internal: LEXP check failed: " + LCheck.Error;
    return Out;
  }

  CpsConvertResult Cps;
  {
    ScopedSpan S(Log, "cps.convert", Job);
    Cps = convertToCps(A, LC, Opts, Lambda);
  }
  Out.Metrics.CpsNodesBeforeOpt = countCpsNodes(Cps.Program);
  CpsCheckResult CCheck;
  {
    ScopedSpan S(Log, "cps.check", Job);
    CCheck = checkCps(Cps.Program);
  }
  if (!CCheck.Ok) {
    Out.Errors = "internal: CPS check failed: " + CCheck.Error;
    return Out;
  }
  CVar MaxVar = Cps.MaxVar;
  Cexp *Optimized;
  {
    ScopedSpan S(Log, "cps.opt", Job);
    Optimized = optimizeCps(A, Opts, Cps.Program, MaxVar, Out.Metrics.Opt);
  }
  Out.Metrics.CpsNodesAfterOpt = countCpsNodes(Optimized);
  {
    ScopedSpan S(Log, "cps.check", Job);
    CCheck = checkCps(Optimized);
  }
  if (!CCheck.Ok) {
    Out.Errors =
        "internal: CPS check failed after optimization: " + CCheck.Error;
    return Out;
  }
  if (Out.Metrics.Opt.HitSafetyCeiling) {
    Out.Errors = "internal: CPS optimizer failed to converge";
    return Out;
  }
  ClosureResult Closed;
  {
    ScopedSpan S(Log, "closure.convert", Job);
    Closed = closureConvert(A, Opts, Optimized, MaxVar);
  }
  Out.Metrics.ClosuresBuilt = Closed.ClosuresBuilt;
  {
    ScopedSpan S(Log, "codegen.gen", Job);
    Out.Program = generateCode(Closed, Out.Metrics.Codegen);
  }
  Out.Metrics.CodeSize = Out.Program.codeSize();
  Out.Ok = true;
  return Out;
}

} // namespace

CompileOutput perfbench::compileTraced(const std::string &Source,
                                       const CompilerOptions &Opts,
                                       SpanLog &Log, uint64_t Job) {
  CompileOutput Out;
  ScopedSpan Root(Log, "driver.compile", Job);
  if (!runOnBigStack([&]() { Out = compileLayers(Source, Opts, Log, Job); }))
    Out.Metrics.BigStackUnavailable = true;
  return Out;
}
