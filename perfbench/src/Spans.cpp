//===- perfbench/src/Spans.cpp - In-memory span recorder -------------------===//

#include "Spans.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace perfbench;

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

} // namespace

uint32_t SpanLog::open(const char *Name, uint64_t Job) {
  SpanRecord R;
  R.Name = Name;
  R.Parent = Stack.empty() ? 0 : Stack.back() + 1;
  R.Job = Job;
  R.StartNs = nowNs();
  Recs.push_back(R);
  uint32_t Index = static_cast<uint32_t>(Recs.size() - 1);
  Stack.push_back(Index);
  return Index;
}

void SpanLog::close(uint32_t Index) {
  assert(!Stack.empty() && Stack.back() == Index && "spans close in order");
  Recs[Index].EndNs = nowNs();
  Stack.pop_back();
}

std::vector<int64_t> SpanLog::selfNs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Kids(Recs.size());
  for (const SpanRecord &R : Recs)
    if (R.Parent != 0)
      Kids[R.Parent - 1].push_back({R.StartNs, R.EndNs});
  std::vector<int64_t> Self(Recs.size());
  for (size_t I = 0; I < Recs.size(); ++I) {
    std::vector<std::pair<int64_t, int64_t>> &K = Kids[I];
    std::sort(K.begin(), K.end());
    int64_t Covered = 0;
    for (size_t J = 0; J < K.size();) {
      int64_t S = K[J].first, E = K[J].second;
      for (++J; J < K.size() && K[J].first <= E; ++J)
        E = std::max(E, K[J].second);
      Covered += E - S;
    }
    Self[I] = (Recs[I].EndNs - Recs[I].StartNs) - Covered;
  }
  return Self;
}

std::string SpanLog::validate() const {
  if (!Stack.empty())
    return "span '" + std::string(Recs[Stack.back()].Name) + "' left open";
  std::vector<int64_t> Self = selfNs();
  for (size_t I = 0; I < Recs.size(); ++I) {
    const SpanRecord &R = Recs[I];
    std::string Where = "span " + std::to_string(I) + " '" + R.Name + "'";
    if (R.EndNs < R.StartNs)
      return Where + " ends before it starts";
    if (Self[I] < 0)
      return Where + " has negative self time";
    if (R.Parent == 0)
      continue;
    if (R.Parent - 1 >= I)
      return Where + " names a parent recorded after it";
    const SpanRecord &P = Recs[R.Parent - 1];
    if (R.Job != P.Job)
      return Where + " has another job id than its parent";
    if (R.StartNs < P.StartNs || R.EndNs > P.EndNs)
      return Where + " outlasts its parent '" + P.Name + "'";
  }
  return std::string();
}

bool SpanLog::appendJsonLines(const std::string &Path,
                              size_t LogIndex) const {
  std::FILE *F = std::fopen(Path.c_str(), "a");
  if (!F)
    return false;
  std::vector<int64_t> Self = selfNs();
  for (size_t I = 0; I < Recs.size(); ++I) {
    const SpanRecord &R = Recs[I];
    std::fprintf(F,
                 "{\"log\":%zu,\"id\":%zu,\"parent\":%u,\"name\":\"%s\","
                 "\"job\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"self_ns\":%lld}\n",
                 LogIndex, I + 1, R.Parent, R.Name, (unsigned long long)R.Job,
                 (long long)R.StartNs, (long long)R.EndNs,
                 (long long)Self[I]);
  }
  return std::fclose(F) == 0;
}
