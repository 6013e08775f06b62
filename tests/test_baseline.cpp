//===- tests/test_baseline.cpp - The corpus matrix against its baseline ----------===//
//
// Every row of the committed baseline (corpus/Baseline.cpp) is compiled
// and run again here and must match exactly: the compile columns and the
// run columns on threaded dispatch, the run columns on switch dispatch,
// and the run columns of the sml.ffb column on the native backend when a
// C compiler is reachable. This is the one oracle for the optimizer, the
// interpreters, the native backend and the prelude snapshot (every row
// compiles through it). On a mismatch the test prints the replacement
// rows; a deliberate change is declared by pasting them over the table.
//
//===----------------------------------------------------------------------===//

#include "corpus/Baseline.h"
#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "native/NativeBackend.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace smltc;

namespace {

struct MatrixRow {
  const BenchmarkProgram *P;
  const CompilerOptions *Opts;
};

/// The 12x6 matrix in the baseline's row order.
std::vector<MatrixRow> matrix() {
  size_t NumVariants = 0;
  const CompilerOptions *Variants = CompilerOptions::allVariants(NumVariants);
  std::vector<MatrixRow> M;
  for (const BenchmarkProgram &P : benchmarkCorpus())
    for (size_t V = 0; V < NumVariants; ++V)
      M.push_back({&P, &Variants[V]});
  return M;
}

std::string tag(const MatrixRow &M) {
  return std::string(M.P->Name) + " / " + M.Opts->VariantName;
}

CompileOutput compileRow(const MatrixRow &M) {
  CompileOutput C = Compiler::compile(M.P->Source, *M.Opts);
  EXPECT_TRUE(C.Ok) << tag(M) << ": " << C.Errors;
  EXPECT_TRUE(C.Metrics.PreludeSnapshotHit) << tag(M);
  return C;
}

/// Checks the run columns of one execution against committed row \p I.
void expectRunMatches(size_t I, const MatrixRow &M, const ExecResult &R,
                      const char *Engine) {
  const BaselineRow &Want = corpusBaseline()[I];
  BaselineRow Got = Want;
  setRunColumns(Got, R);
  std::string D = baselineDiff(Want, Got, /*RunOnly=*/true);
  EXPECT_TRUE(D.empty()) << tag(M) << " on " << Engine << ": " << D
                         << "\nmeasured row:\n"
                         << formatBaselineRow(Got);
}

} // namespace

TEST(CorpusBaseline, CoversTheMatrixInOrder) {
  std::vector<MatrixRow> M = matrix();
  ASSERT_EQ(corpusBaseline().size(), M.size());
  for (size_t I = 0; I < M.size(); ++I) {
    const BaselineRow &R = corpusBaseline()[I];
    EXPECT_EQ(std::string(R.Bench), M[I].P->Name) << I;
    EXPECT_EQ(std::string(R.Variant), M[I].Opts->VariantName) << I;
    // The checksums pinned in the corpus seed the result column.
    EXPECT_EQ(R.Result, M[I].P->ExpectedResult) << tag(M[I]);
    EXPECT_FALSE(R.Trapped) << tag(M[I]);
    EXPECT_FALSE(R.Uncaught) << tag(M[I]);
  }
}

// The compile columns (code words, program bytes, base-cadence
// instructions, optimizer phases and arena bytes) and the run columns on
// threaded dispatch. Prints the whole replacement table on any mismatch.
TEST(CorpusBaseline, CompileAndThreadedRunMatchEveryRow) {
  std::vector<MatrixRow> M = matrix();
  const std::vector<BaselineRow> &Rows = corpusBaseline();
  std::string Table;
  bool AnyDiff = Rows.size() != M.size();
  for (size_t I = 0; I < M.size(); ++I) {
    CompileOutput C = compileRow(M[I]);
    ASSERT_TRUE(C.Ok);
    CompilerOptions Base = *M[I].Opts;
    Base.CpsOptDisable = kCpsRuleAll;
    CompileOutput CB = Compiler::compile(M[I].P->Source, Base);
    ASSERT_TRUE(CB.Ok) << tag(M[I]) << ": " << CB.Errors;
    EXPECT_EQ(CB.Metrics.Opt.EtaFuns, 0u) << tag(M[I]);
    EXPECT_EQ(CB.Metrics.Opt.WrapCancelChains, 0u) << tag(M[I]);
    EXPECT_EQ(CB.Metrics.Opt.HoistedAllocs, 0u) << tag(M[I]);
    VmOptions VO = baselineVmOptions(*M[I].Opts);
    ExecResult RB = execute(CB.Program, VO);
    ExecResult R = execute(C.Program, VO);
    EXPECT_EQ(R.Metrics.Dispatch, std::string(threadedDispatchAvailable()
                                                  ? "threaded"
                                                  : "switch"));

    BaselineRow Got{};
    Got.Bench = M[I].P->Name;
    Got.Variant = M[I].Opts->VariantName;
    setCompileColumns(Got, C, RB.Instructions);
    setRunColumns(Got, R);
    Table += formatBaselineRow(Got);
    if (I >= Rows.size())
      continue;
    std::string D = baselineDiff(Rows[I], Got);
    if (!D.empty()) {
      AnyDiff = true;
      ADD_FAILURE() << tag(M[I]) << ": " << D;
    }
  }
  if (AnyDiff)
    ADD_FAILURE() << "replacement table for corpus/Baseline.cpp:\n" << Table;
}

TEST(CorpusBaseline, SwitchDispatchMatchesEveryRow) {
  std::vector<MatrixRow> M = matrix();
  ASSERT_EQ(corpusBaseline().size(), M.size());
  for (size_t I = 0; I < M.size(); ++I) {
    CompileOutput C = compileRow(M[I]);
    ASSERT_TRUE(C.Ok);
    VmOptions VO = baselineVmOptions(*M[I].Opts);
    VO.Dispatch = VmDispatch::Switch;
    ExecResult R = execute(C.Program, VO);
    EXPECT_EQ(R.Metrics.Dispatch, std::string("switch"));
    expectRunMatches(I, M[I], R, "switch");
  }
}

TEST(CorpusBaseline, NativeBackendMatchesFfbColumn) {
  if (!native::nativeAvailable())
    GTEST_SKIP() << "no C compiler reachable; native backend untestable";
  std::vector<MatrixRow> M = matrix();
  ASSERT_EQ(corpusBaseline().size(), M.size());
  size_t Checked = 0;
  for (size_t I = 0; I < M.size(); ++I) {
    if (std::string(M[I].Opts->VariantName) != "sml.ffb")
      continue;
    CompileOutput C = compileRow(M[I]);
    ASSERT_TRUE(C.Ok);
    ExecResult R;
    std::string Err;
    ASSERT_TRUE(native::executeNative(
        C.Program, baselineVmOptions(*M[I].Opts), R, Err))
        << tag(M[I]) << ": " << Err;
    EXPECT_EQ(R.Metrics.Dispatch, std::string("native"));
    expectRunMatches(I, M[I], R, "native");
    ++Checked;
  }
  EXPECT_EQ(Checked, benchmarkCorpus().size());
}
