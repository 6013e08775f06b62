//===- farm/Router.h - Shard-aware front door for the build farm -------------===//
///
/// \file
/// The farm's front door: a router that speaks the same frame protocol
/// as the compile daemons and forwards each CompileReq to one of N
/// backend daemons chosen by consistent-hashing the request's
/// content-addressed cache-key hash. The same source therefore always
/// lands on the same shard (its memory/disk cache stays hot), adding a
/// backend remaps only ~1/N of the key space, and capacity scales by
/// pointing more daemons at the ring.
///
/// Responses are relayed byte-for-byte: the router never re-encodes a
/// backend's CompileResp payload, so programs coming through the router
/// are bit-identical to direct compiles. In-band rejections (QueueFull,
/// Draining, CompileFailed...) pass through untouched — only *transport*
/// failures (backend unreachable, connection broken mid-request) are
/// retried, with bounded backoff, against the next distinct backend on
/// the ring; the failed backend is marked unhealthy and re-probed in the
/// background. Ping/Stats are answered locally, ShutdownReq stops the
/// router only, and HTTP `GET /metrics` scrapes the router's own
/// registry (per-backend forward/failure/health series).
///
/// Concurrency model: unlike the daemon's single poll loop, the router
/// is thread-per-connection — each client conversation is a blocking
/// proxy loop holding its own cached backend connections, so slow
/// backends only stall their own clients. Shared state (backend health,
/// counters) is atomic.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_FARM_ROUTER_H
#define SMLTC_FARM_ROUTER_H

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "server/Client.h"
#include "server/Protocol.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace smltc {
namespace farm {

struct RouterOptions {
  /// TCP listen address "HOST:PORT" (port 0 = ephemeral; see tcpAddr()).
  std::string ListenAddr;
  /// Optional Unix socket to listen on as well.
  std::string SocketPath;
  /// Backend daemon addresses: "HOST:PORT", "tcp://HOST:PORT", or a
  /// Unix socket path (anything containing '/').
  std::vector<std::string> Backends;
  /// Tenant token forwarded to backends that require authentication.
  /// Clients may also present their own TenantAuth, which wins.
  std::string Token;
  size_t MaxConnections = 128;
  /// Transport-failure retries per request (distinct backends).
  int MaxAttempts = 3;
  /// Base backoff before a retry; doubles per attempt.
  int RetryBaseMs = 25;
  /// Unhealthy backends are re-probed at this interval.
  int HealthProbeIntervalMs = 500;
  /// Ring points per backend; more points = smoother key spread.
  int VirtualNodes = 64;
};

class FarmRouter {
public:
  explicit FarmRouter(RouterOptions Options);
  ~FarmRouter();
  FarmRouter(const FarmRouter &) = delete;
  FarmRouter &operator=(const FarmRouter &) = delete;

  /// Validates backends, builds the hash ring, binds the listeners.
  bool start(std::string &Err);
  /// Serves until requestStop() or a client ShutdownReq. Returns the
  /// number of compile requests forwarded.
  uint64_t run();
  /// Thread-safe stop request (also wired to SIGTERM/SIGINT by main).
  void requestStop();

  /// The TCP address actually bound (resolves ephemeral ports).
  const std::string &tcpAddr() const { return BoundTcpAddr; }

  /// Ring lookup, exposed for tests: candidate backend indices for a
  /// key hash, primary first, each backend at most once.
  std::vector<size_t> candidatesFor(uint64_t KeyHash) const;

private:
  struct Backend {
    std::string Addr; ///< normalized connect target
    std::atomic<bool> Healthy{true};
    std::atomic<uint64_t> Forwarded{0};
    std::atomic<uint64_t> Failures{0};
  };

  void handleConn(int Fd);
  void handleHttpConn(int Fd, std::string In);
  /// Forwards one CompileReq frame; answers the client on Fd either
  /// with the relayed response or a router-level error.
  void forwardCompile(int Fd, const server::Frame &F,
                      std::string &ConnToken,
                      std::vector<std::unique_ptr<server::Client>> &Pool);
  /// Records one forwarded (or exhausted) compile into the process
  /// RequestLog so the router's /tracez lists its slowest forwards.
  /// Called before the answer is sent, so a client holding its answer
  /// always finds the forward there.
  void recordForward(std::chrono::steady_clock::time_point Arrival,
                     uint64_t RequestId, const obs::TraceContext &Ctx);
  /// Returns a connected (and, if needed, authenticated) client for
  /// backend `Idx` from the per-connection pool, or null on failure.
  server::Client *backendClient(
      size_t Idx, const std::string &ConnToken,
      std::vector<std::unique_ptr<server::Client>> &Pool);
  void probeLoop();
  bool sendAll(int Fd, const std::string &Bytes);
  std::string statsJson() const;
  /// The /statusz JSON document: build identity, uptime, drain state,
  /// and the backend ring with per-backend health and counters.
  std::string renderStatusz() const;
  void registerMetrics();

  RouterOptions Opts;
  std::vector<std::unique_ptr<Backend>> Backends;
  /// Consistent-hash ring: (point, backend index), sorted by point.
  std::vector<std::pair<uint64_t, size_t>> Ring;

  obs::Registry Reg;
  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> CompileForwards{0};
  std::atomic<uint64_t> Retries{0};
  std::atomic<uint64_t> Unroutable{0};
  std::atomic<uint64_t> ScrapeRequests{0};
  std::atomic<uint64_t> ProtocolErrors{0};
  std::atomic<uint64_t> ConnsAccepted{0};
  std::atomic<uint64_t> ConnsRejected{0};

  int TcpListenFd = -1;
  int UnixListenFd = -1;
  std::string BoundTcpAddr;
  int StopPipe[2] = {-1, -1};
  std::atomic<bool> StopRequested{false};
  bool Started = false;
  std::chrono::steady_clock::time_point StartTime{
      std::chrono::steady_clock::now()};

  /// Connection threads are detached; this counts the live ones so
  /// shutdown can wait for them (receive timeouts keep every thread
  /// checking StopRequested, so the wait is bounded).
  std::atomic<size_t> LiveConns{0};
  std::thread Prober;
};

} // namespace farm
} // namespace smltc

#endif // SMLTC_FARM_ROUTER_H
