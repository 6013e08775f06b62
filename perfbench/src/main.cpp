//===- perfbench/src/main.cpp - The benchmark binary -----------------------===//
//
// Runs one workload and prints one JSON object on its last line of
// standard output: the checks (attempted, failed, errors), set-up time,
// every metric the workload measured, and the exact counts.
//
// Usage:
//   perfbench --work DIR --workload NAME [--seed N] [--seconds S]
//             [--trace 0|1] [--setup-only]
//   perfbench --work DIR --prepare-native
//
// DIR holds everything the run writes: the native module cache, the
// compile server's socket and disk tier, and the span file of a traced
// run. perfbench/run.py is the user-facing command.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

using namespace perfbench;

const Clock::time_point perfbench::kProcessStart = Clock::now();

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

/// NaN (a percentile without enough samples beyond it) prints as null.
std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printResult(const RunArgs &Args, bool Ran, const RunResult &R) {
  std::string J = "{\"workload\":" + jsonString(Args.Workload) +
                  ",\"ran\":" + (Ran ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(R.Attempted) +
                  ",\"failed\":" + std::to_string(R.Failed) +
                  ",\"setup_s\":" + jsonNumber(R.SetupSec) + ",\"metrics\":{";
  const char *Sep = "";
  for (const auto &[Name, V] : R.Metrics) {
    J += Sep + jsonString(Name) + ":" + jsonNumber(V);
    Sep = ",";
  }
  J += "},\"exact\":{";
  Sep = "";
  for (const auto &[Name, V] : R.Exact) {
    J += Sep + jsonString(Name) + ":" + std::to_string(V);
    Sep = ",";
  }
  J += "},\"errors\":[";
  Sep = "";
  for (const std::string &E : R.Errors) {
    J += Sep + jsonString(E);
    Sep = ",";
  }
  std::printf("%s]}\n", J.c_str());
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --work DIR --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--setup-only]\n"
               "       perfbench --work DIR --prepare-native\n",
               Msg);
  return 64;
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs Args;
  std::string Work;
  bool Prepare = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    bool HasValue = I + 1 < Argc;
    if (A == "--setup-only")
      Args.SetupOnly = true;
    else if (A == "--prepare-native")
      Prepare = true;
    else if (!HasValue)
      return usage(("missing value for " + A).c_str());
    else if (A == "--work")
      Work = Argv[++I];
    else if (A == "--workload")
      Args.Workload = Argv[++I];
    else if (A == "--seed")
      Args.Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (A == "--seconds")
      Args.Seconds = std::atof(Argv[++I]);
    else if (A == "--trace")
      Args.Trace = std::strcmp(Argv[++I], "0") != 0;
    else
      return usage(("unknown argument " + A).c_str());
  }
  if (Work.empty())
    return usage("--work is required");
  char Abs[PATH_MAX];
  if (!::realpath(Work.c_str(), Abs) || ::chdir(Abs) != 0)
    return usage("--work must name an existing directory");
  // The native backend's module cache lives in the working directory.
  ::setenv("SMLTCC_NATIVE_CACHE", (std::string(Abs) + "/native").c_str(), 1);

  if (Prepare) {
    std::string Err;
    if (!prepareNative(Err)) {
      std::fprintf(stderr, "perfbench: native preparation failed: %s\n",
                   Err.c_str());
      return 1;
    }
    return 0;
  }
  if (Args.Workload.empty())
    return usage("--workload is required");
  if (!(Args.Seconds > 0))
    return usage("--seconds must be positive");

  RunResult R;
  bool Ran = runWorkload(Args, R);
  if (Args.Trace && Ran) {
    const std::string Path = "trace-" + Args.Workload + ".jsonl";
    std::remove(Path.c_str());
    for (size_t I = 0; I < R.Spans.size(); ++I) {
      if (std::string E = R.Spans[I].validate(); !E.empty())
        R.fail("span tree: " + E);
      if (!R.Spans[I].appendJsonLines(Path, I))
        R.fail("cannot write " + Path);
    }
  }
  printResult(Args, Ran, R);
  return Ran ? 0 : 1;
}
