//===- perfbench/src/Pipeline.h - The compile pipeline, one span per layer -===//
///
/// \file
/// Compiles a job by calling each layer's public entry point itself, in
/// the order `Compiler::compileImpl` uses, on a big-stack thread, with
/// one span around each call. The composition must produce the same
/// `TmProgram` as `Compiler::compile`; the benchmark's tests and every
/// traced run check that byte for byte, so the per-layer numbers stay
/// tied to the shipped pipeline.
///
/// Layer span names (children of the "driver.compile" root):
///   ast.parse  elab.elaborate  elab.mtd  lexp.translate  lexp.check
///   cps.convert  cps.check (twice)  cps.opt  closure.convert  codegen.gen
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PIPELINE_H
#define PERFBENCH_PIPELINE_H

#include "Spans.h"

#include "driver/Compiler.h"

#include <string>

namespace perfbench {

/// The layer span names, in pipeline order.
extern const char *const kLayerSpans[10];

/// Compiles \p Source with the prelude snapshot, recording spans into
/// \p Log under a "driver.compile" root tagged \p Job.
smltc::CompileOutput compileTraced(const std::string &Source,
                                   const smltc::CompilerOptions &Opts,
                                   SpanLog &Log, uint64_t Job);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_H
