//===- tests/test_pipeline.cpp - End-to-end compile-and-run tests ----------------===//

#include "driver/Compiler.h"

#include <gtest/gtest.h>

using namespace smltc;

namespace {

/// Runs under all six variants and checks they agree on the result.
int64_t runAllVariants(const std::string &Src) {
  size_t N;
  const CompilerOptions *Vs = CompilerOptions::allVariants(N);
  int64_t First = 0;
  for (size_t I = 0; I < N; ++I) {
    ExecResult R = Compiler::compileAndRun(Src, Vs[I]);
    EXPECT_TRUE(R.Ok) << Vs[I].VariantName << ": " << R.TrapMessage;
    EXPECT_FALSE(R.UncaughtException) << Vs[I].VariantName;
    if (I == 0)
      First = R.Result;
    else
      EXPECT_EQ(R.Result, First) << "variant " << Vs[I].VariantName
                                 << " disagrees";
  }
  return First;
}

} // namespace

TEST(Pipeline, Arithmetic) {
  EXPECT_EQ(runAllVariants("fun main () = 1 + 2 * 3 - 4"), 3);
  EXPECT_EQ(runAllVariants("fun main () = 17 div 5 + 17 mod 5"), 5);
  EXPECT_EQ(runAllVariants("fun main () = ~7 + 10"), 3);
}

TEST(Pipeline, FloatArithmetic) {
  EXPECT_EQ(runAllVariants("fun main () = floor (3.5 + 0.25 * 2.0)"), 4);
  EXPECT_EQ(runAllVariants("fun main () = floor (sqrt 16.0)"), 4);
  EXPECT_EQ(runAllVariants(
                "fun hyp (x : real, y : real) = sqrt (x * x + y * y) "
                "fun main () = floor (hyp (3.0, 4.0))"),
            5);
}

TEST(Pipeline, Conditionals) {
  EXPECT_EQ(runAllVariants("fun main () = if 3 < 4 then 10 else 20"), 10);
  EXPECT_EQ(runAllVariants(
                "fun main () = if 3.5 > 4.0 then 1 else 0"),
            0);
  EXPECT_EQ(runAllVariants("fun main () = if true andalso (1 = 2 orelse "
                           "2 = 2) then 7 else 8"),
            7);
}

TEST(Pipeline, Recursion) {
  EXPECT_EQ(runAllVariants("fun fact n = if n = 0 then 1 else n * fact "
                           "(n - 1) fun main () = fact 10"),
            3628800);
  EXPECT_EQ(runAllVariants("fun fib n = if n < 2 then n else fib (n - 1) "
                           "+ fib (n - 2) fun main () = fib 15"),
            610);
}

TEST(Pipeline, TuplesAndSelection) {
  EXPECT_EQ(runAllVariants("val p = (3, 4, 5) fun main () = #1 p * #3 p"),
            15);
  EXPECT_EQ(runAllVariants(
                "fun swap (a, b) = (b, a) "
                "fun main () = let val (x, y) = swap (1, 9) in x * 10 + y "
                "end"),
            91);
}

TEST(Pipeline, MixedFloatRecords) {
  // Figure 1: a record mixing floats and words, built and taken apart.
  EXPECT_EQ(runAllVariants(
                "val x = (4.51, 3, 3.14, 7) "
                "fun main () = floor (#1 x + #3 x) + #2 x * #4 x"),
            7 + 21);
}

TEST(Pipeline, ListsAndPrelude) {
  EXPECT_EQ(runAllVariants("fun main () = length [1, 2, 3, 4]"), 4);
  EXPECT_EQ(runAllVariants(
                "fun main () = foldl (fn (x, a) => x + a) 0 "
                "(map (fn x => x * x) [1, 2, 3, 4])"),
            30);
  EXPECT_EQ(runAllVariants("fun main () = length ([1, 2] @ [3, 4, 5])"),
            5);
  EXPECT_EQ(runAllVariants(
                "fun main () = hd (rev [1, 2, 3])"),
            3);
}

TEST(Pipeline, PolymorphicFunctions) {
  // The paper's introduction example: 1.05^16 = 2.18...
  EXPECT_EQ(runAllVariants(
                "fun quad f x = f (f (f (f x))) "
                "fun h (x : real) = x * x "
                "fun main () = floor (quad h 1.05)"),
            2);
  EXPECT_EQ(runAllVariants(
                "fun id x = x "
                "fun main () = id (fn y => y + 1) (id 41)"),
            42);
}

TEST(Pipeline, Datatypes) {
  EXPECT_EQ(runAllVariants(
                "datatype 'a tree = Leaf | Node of 'a tree * 'a * 'a tree "
                "fun insert (Leaf, x) = Node (Leaf, x, Leaf) "
                "  | insert (Node (l, y, r), x) = "
                "      if x < y then Node (insert (l, x), y, r) "
                "      else Node (l, y, insert (r, x)) "
                "fun total t = case t of Leaf => 0 "
                "  | Node (l, x, r) => total l + x + total r "
                "fun main () = total (insert (insert (insert (Leaf, 5), "
                "2), 8))"),
            15);
}

TEST(Pipeline, EqualityForms) {
  EXPECT_EQ(runAllVariants("fun main () = if (1, 2) = (1, 2) then 1 else "
                           "0"),
            1);
  EXPECT_EQ(runAllVariants("fun main () = if [1, 2] = [1, 2] then 1 else "
                           "0"),
            1);
  EXPECT_EQ(runAllVariants("fun main () = if \"ab\" = \"ab\" then 1 else "
                           "0"),
            1);
  EXPECT_EQ(runAllVariants("fun main () = if (1, 3) <> (1, 2) then 1 "
                           "else 0"),
            1);
}

TEST(Pipeline, RefsAndArrays) {
  EXPECT_EQ(runAllVariants(
                "fun main () = let val r = ref 10 in r := !r + 5; !r end"),
            15);
  EXPECT_EQ(runAllVariants(
                "fun main () = let val a = array (5, 0) "
                "fun fill i = if i >= 5 then () "
                "             else (aupdate (a, i, i * i); fill (i + 1)) "
                "fun total (i, acc) = if i >= 5 then acc "
                "                     else total (i + 1, acc + asub (a, "
                "i)) in fill 0; total (0, 0) end"),
            30);
}

TEST(Pipeline, Exceptions) {
  EXPECT_EQ(runAllVariants(
                "exception Neg of int "
                "fun f x = if x < 0 then raise Neg (0 - x) else x "
                "fun main () = f (0 - 42) handle Neg n => n"),
            42);
  EXPECT_EQ(runAllVariants("fun main () = (1 div 0) handle Div => 99"),
            99);
  EXPECT_EQ(runAllVariants(
                "fun main () = let val a = array (3, 0) in "
                "asub (a, 7) handle Subscript => 88 end"),
            88);
  // Uncaught exceptions surface as such.
  ExecResult R = Compiler::compileAndRun("fun main () = hd nil",
                                         CompilerOptions::ffb());
  EXPECT_TRUE(R.Ok);
  EXPECT_TRUE(R.UncaughtException);
}

TEST(Pipeline, Callcc) {
  EXPECT_EQ(runAllVariants(
                "fun main () = 1 + callcc (fn k => 10)"),
            11);
  EXPECT_EQ(runAllVariants(
                "fun main () = 1 + callcc (fn k => 10 + throw k 100)"),
            101);
}

TEST(Pipeline, StringsEndToEnd) {
  EXPECT_EQ(runAllVariants(
                "fun main () = size (\"abc\" ^ \"defg\")"),
            7);
  EXPECT_EQ(runAllVariants("fun main () = strsub (\"abc\", 1)"), 98);
  EXPECT_EQ(runAllVariants(
                "fun main () = size (substring (\"hello world\", 6, 5))"),
            5);
  EXPECT_EQ(runAllVariants("fun main () = size (itos 12345)"), 5);
}

TEST(Pipeline, PrintOutput) {
  ExecResult R = Compiler::compileAndRun(
      "fun main () = (print \"hi \"; print (itos 42); 0)",
      CompilerOptions::ffb());
  ASSERT_TRUE(R.Ok) << R.TrapMessage;
  EXPECT_EQ(R.Output, "hi 42");
}

TEST(Pipeline, ModulesEndToEnd) {
  EXPECT_EQ(runAllVariants(
                "signature COUNTER = sig val make : unit -> int ref "
                "  val bump : int ref -> int end "
                "structure C : COUNTER = struct "
                "  fun make () = ref 0 "
                "  fun bump r = (r := !r + 1; !r) end "
                "fun main () = let val r = C.make () in C.bump r + "
                "C.bump r end"),
            3);
}

TEST(Pipeline, FunctorEndToEnd) {
  EXPECT_EQ(runAllVariants(
                "signature ORD = sig type t val le : t * t -> bool end "
                "functor Sort (O : ORD) = struct "
                "  fun insert (x, nil) = [x] "
                "    | insert (x, y :: r) = if O.le (x, y) then x :: y "
                ":: r else y :: insert (x, r) "
                "  fun sort l = foldl insert nil l end "
                "structure IntOrd = struct type t = int "
                "  fun le (a : int, b) = a <= b end "
                "structure S = Sort (IntOrd) "
                "fun main () = hd (S.sort [5, 2, 9, 1, 7])"),
            1);
}

TEST(Pipeline, OpaqueModuleEndToEnd) {
  EXPECT_EQ(runAllVariants(
                "signature STACK = sig type t val empty : t "
                "  val push : int * t -> t val top : t -> int end "
                "abstraction S : STACK = struct type t = int list "
                "  val empty = nil "
                "  fun push (x, s) = x :: s "
                "  fun top s = hd s end "
                "fun main () = S.top (S.push (42, S.empty))"),
            42);
}

TEST(Pipeline, FloatHeavyKernelAllVariants) {
  // A float kernel touching records, lists, and function returns.
  EXPECT_EQ(runAllVariants(
                "fun dot ((ax : real, ay : real), (bx, by)) = ax * bx + "
                "ay * by "
                "fun norm2 v = dot (v, v) "
                "fun main () = floor (foldl (fn (v, a : real) => a + "
                "norm2 v) 0.0 [(1.0, 2.0), (3.0, 4.0), (0.5, 0.5)])"),
            30);
}

TEST(Pipeline, VariantMetricsDiffer) {
  // nrp must allocate more than ffb on a float-heavy kernel.
  const char *Src =
      "fun step ((x : real, v : real), n) = "
      "  if n = 0 then (x, v) "
      "  else step ((x + 0.01 * v, v * 0.999), n - 1) "
      "fun main () = floor (#1 (step ((0.0, 10.0), 2000)))";
  ExecResult Nrp = Compiler::compileAndRun(Src, CompilerOptions::nrp());
  ExecResult Ffb = Compiler::compileAndRun(Src, CompilerOptions::ffb());
  ASSERT_TRUE(Nrp.Ok && Ffb.Ok) << Nrp.TrapMessage << Ffb.TrapMessage;
  EXPECT_EQ(Nrp.Result, Ffb.Result);
  EXPECT_GT(Nrp.AllocWords32, Ffb.AllocWords32);
  EXPECT_GT(Nrp.Cycles, Ffb.Cycles);
}
