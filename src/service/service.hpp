/// \file service.hpp
/// The multi-tenant pricing service: net::ServerHandler glue between the
/// socket server's event loop and the per-tenant sessions.
///
/// Request path (all on the loop thread):
///
///   frame in ----> semantic validation -------------------+-- reject
///      |           (tenant known? mode right?              |  (machine-
///      |            options in range? knot in curve?)      |   readable
///      v                                                   |   reason)
///   admission (tenant's AdmissionController:               |
///     projected completion vs deadline class) -- shed -----+
///      |                 |
///    admit             defer
///      v                 v
///   tenant StreamRuntime ingest (frame order): one push_span per request,
///   one lock and one dispatcher wake whatever its option count
///      |
///   lane finishes a micro-batch: BatchCollector::put into slot `index`,
///   then the server's Waker::wake() -- poll() returns, the loop drains the
///   wake pipe
///      |
///   on_tick: poll_batches -> per-request result spans -> kResult frames
///            (status byte says on-time vs deferred). The harvest walks
///            only the batches completed since the last tick, so a tick
///            costs the same late in a long session as early in it.
///
/// Every tenant's completion notifier is bound to the server's Waker the
/// first time on_frame() or on_tick() hands the service a Server&, so the
/// service may be built before its server; no work can reach a runtime
/// before that first on_frame().
///
/// Reject taxonomy (net::RejectReason): codec-level poisoning is kMalformed
/// with connection teardown (nothing behind a framing error is trustworthy);
/// semantically-invalid-but-well-framed requests are kMalformed with the
/// connection kept; kUnknownTenant / kWrongMode / kOverload likewise keep
/// the connection -- the client is speaking the protocol fine.
///
/// Shutdown: with stop_when_idle set (tests, client-replay), the service
/// stops the server once every connection has come and gone and no request
/// is in flight. Destruction drains every tenant runtime.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cds/curve.hpp"
#include "io/csv.hpp"
#include "net/server.hpp"
#include "service/tenant.hpp"

namespace cdsflow::service {

struct ServiceConfig {
  std::vector<TenantSpec> tenants;
  /// Stop the server once at least one connection has been seen, all are
  /// gone and no request is pending (replay/test mode). Off: serve forever.
  bool stop_when_idle = false;
};

/// Wire/admission accounting across all tenants.
struct ServiceStats {
  std::uint64_t frames = 0;
  std::uint64_t quote_updates = 0;
  std::uint64_t requests = 0;
  std::uint64_t admitted = 0;
  std::uint64_t deferred = 0;
  std::uint64_t shed = 0;
  std::uint64_t responses = 0;
  std::uint64_t rejects_malformed = 0;
  std::uint64_t rejects_unknown_tenant = 0;
  std::uint64_t rejects_wrong_mode = 0;
  std::uint64_t connections_poisoned = 0;
};

class PricingService : public net::ServerHandler {
 public:
  /// Builds one TenantSession (and so one StreamRuntime) per configured
  /// tenant; the curves are shared by all tenants (each session copies
  /// them, per-tenant hazard updates stay tenant-local).
  PricingService(ServiceConfig config, const cds::TermStructure& interest,
                 const cds::TermStructure& hazard);

  void on_frame(net::Server& server, int conn, net::Frame frame) override;
  void on_malformed(net::Server& server, int conn,
                    const std::string& error) override;
  void on_tick(net::Server& server) override;
  void on_disconnect(int conn) override;

  /// Drains every tenant runtime and returns the leftover completed
  /// requests (only meaningful before any response path needs them; the
  /// idle-stop path calls this itself). Idempotent.
  std::vector<TenantSession::Completed> drain_all();

  const ServiceStats& stats() const { return stats_; }
  TenantSession* session(std::uint32_t tenant);
  const TenantSession* session(std::uint32_t tenant) const;
  /// Per-tenant ingest-to-response latency CDF rows (io CSV schema), all
  /// tenants concatenated in id order.
  std::vector<io::LatencyCdfRow> latency_rows() const;
  /// Seconds since service construction -- the admission/latency clock.
  double now_seconds() const;

 private:
  void send_reject(net::Server& server, int conn, std::uint32_t tenant,
                   std::uint32_t request, net::RejectReason reason,
                   std::string detail);
  void send_completed(net::Server& server,
                      const std::vector<TenantSession::Completed>& batch,
                      std::uint32_t tenant);
  /// Points every tenant's completion notifier at `server`'s Waker (once
  /// per server).
  void bind_waker(const net::Server& server);

  ServiceConfig config_;
  /// Loop-thread-confined, not lock-guarded: the session registry and the
  /// stats are touched only from the net::Server poll loop's callbacks
  /// (plus construction/drain before the loop starts and after it exits).
  /// Cross-thread traffic reaches the sessions only through each tenant's
  /// StreamRuntime, whose internals carry the real capabilities -- see
  /// docs/CONCURRENCY.md. Adding a mutex here would claim a concurrency
  /// the single-threaded event loop never has.
  std::map<std::uint32_t, std::unique_ptr<TenantSession>> sessions_;
  ServiceStats stats_;
  std::chrono::steady_clock::time_point epoch_;
  /// The Waker the tenants' notifiers hold (kept so a rebind is detected
  /// without address reuse fooling it).
  std::shared_ptr<net::Waker> waker_;
  bool saw_connection_ = false;
  bool drained_ = false;
};

}  // namespace cdsflow::service
