//===- perfbench/src/Calibrate.cpp - Machine-speed calibration -------------===//

#include "Calibrate.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;

MachineSpeed::MachineSpeed(bool WithSwitches)
    : WithSwitches(WithSwitches), Nodes(200000), Table(1u << 17),
      Program(256), Keys(50000) {}

/// A fixed amount of compiler- and interpreter-like work over buffers
/// allocated once, so the kernel leaves the allocator's state alone: a
/// walk over a 3 MiB random graph with hash-table updates, a
/// switch-dispatched register machine and a sort. Returns a value
/// derived from all of it so none can be optimized away.
uint64_t MachineSpeed::referenceKernel() {
  std::mt19937_64 G(42);
  for (Node &N : Nodes)
    N = {static_cast<uint32_t>(G() % Nodes.size()),
         static_cast<uint32_t>(G() % Nodes.size()), G()};
  std::fill(Table.begin(), Table.end(), 0);
  const size_t Mask = Table.size() - 1;
  uint64_t H = 0, Used = 0;
  uint32_t Cur = 0;
  for (int I = 0; I < 200000; ++I) {
    const Node &N = Nodes[Cur];
    H = H * 31 + N.V;
    Cur = H & 1 ? N.L : N.R;
    if ((I & 3) != 0)
      continue;
    uint64_t Key = (H % 65536) + 1;
    for (size_t Slot = (Key * 0x9E3779B97F4A7C15ull) >> 47 & Mask;;
         Slot = (Slot + 1) & Mask) {
      if (Table[Slot] == Key)
        break;
      if (Table[Slot] == 0) {
        Table[Slot] = Key;
        ++Used;
        break;
      }
    }
  }

  // The register machine runs a fixed pseudo-random program, so its
  // branches are as hard to predict as an interpreter's dispatch.
  for (uint8_t &Op : Program)
    Op = static_cast<uint8_t>(G() % 6);
  int64_t R[4] = {1, 2, 3, 4};
  uint32_t Pc = 0;
  for (int I = 0; I < 1500000; ++I) {
    switch (Program[Pc]) {
    case 0:
      R[0] += R[1];
      break;
    case 1:
      R[1] ^= R[2] << 1;
      break;
    case 2:
      R[2] = R[3] * 3 + 1;
      break;
    case 3:
      if (R[0] & 1)
        Pc += 3;
      break;
    case 4:
      R[3] -= R[0];
      break;
    default:
      H += static_cast<uint64_t>(R[(Pc >> 2) & 3]);
    }
    Pc = (Pc + 1) % Program.size();
  }

  for (uint64_t &K : Keys)
    K = G();
  std::sort(Keys.begin(), Keys.end());
  return H + Used + static_cast<uint64_t>(R[0]) + Keys[Keys.size() / 2];
}

namespace {

/// 2000 one-byte round trips between two threads over a Unix socket
/// pair: the system calls and wake-ups a served request is made of.
/// Returns false when the socket pair cannot be made.
bool pingPong() {
  constexpr int RoundTrips = 2000;
  int Fd[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fd) != 0)
    return false;
  std::thread Peer([&] {
    char C;
    for (int I = 0; I < RoundTrips; ++I)
      if (::read(Fd[1], &C, 1) != 1 || ::write(Fd[1], &C, 1) != 1)
        break;
  });
  char B = 0;
  bool Ok = true;
  for (int I = 0; Ok && I < RoundTrips; ++I)
    Ok = ::write(Fd[0], &B, 1) == 1 && ::read(Fd[0], &B, 1) == 1;
  ::shutdown(Fd[0], SHUT_RDWR);
  Peer.join();
  ::close(Fd[0]);
  ::close(Fd[1]);
  return Ok;
}

} // namespace

void MachineSpeed::sample() {
  // Only the second of two back-to-back runs of the compute part is
  // timed: the first brings its buffers back into the caches the workload
  // has just used, so the factor does not depend on the workload's
  // footprint.
  volatile uint64_t Sink = referenceKernel();
  auto T0 = Clock::now();
  Sink = referenceKernel();
  (void)Sink;
  double RefSec = kReferenceKernelSec;
  if (WithSwitches && pingPong())
    RefSec += kReferenceSwitchSec;
  auto T1 = Clock::now();
  Samples.push_back(
      {T1, std::chrono::duration<double>(T1 - T0).count(), RefSec});
}

void MachineSpeed::sampleEvery(double IntervalSec) {
  if (Samples.empty() ||
      std::chrono::duration<double>(Clock::now() - Samples.back().At)
              .count() >= IntervalSec)
    sample();
}

double MachineSpeed::factor() const {
  if (Samples.empty())
    return 1;
  std::vector<double> V;
  for (const Sample &S : Samples)
    V.push_back(S.RefSec / S.Sec);
  std::nth_element(V.begin(), V.begin() + V.size() / 2, V.end());
  return V[V.size() / 2];
}

double MachineSpeed::factorAround(Clock::time_point From,
                                  Clock::time_point To) const {
  // Samples are in time order: [Lo, Hi) are the ones in the interval plus
  // the nearest on each side.
  auto Lo = std::lower_bound(
      Samples.begin(), Samples.end(), From,
      [](const Sample &S, Clock::time_point T) { return S.At < T; });
  auto Hi = std::upper_bound(
      Samples.begin(), Samples.end(), To,
      [](Clock::time_point T, const Sample &S) { return T < S.At; });
  if (Lo != Samples.begin())
    --Lo;
  if (Hi != Samples.end())
    ++Hi;
  if (Lo == Hi)
    return factor();
  double Ref = 0, Sec = 0;
  for (auto It = Lo; It != Hi; ++It) {
    Ref += It->RefSec;
    Sec += It->Sec;
  }
  return Ref / Sec;
}
