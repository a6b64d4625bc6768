/// \file quote.cpp
/// `quote-stream`: open loop against an in-process `PricingService` over
/// unix sockets.
///
/// One generator thread sends Poisson arrivals to three tenants (two price,
/// one risk), one connection each; every request carries 64 options of a
/// standard-tenor (1/3/5/7/10y) book and is followed by a hazard-quote
/// update. A receiver thread reads the responses. Latency runs from each
/// request's *intended* send time, so a stalled generator or server is
/// charged to the requests it delayed (no coordinated omission), and the
/// generator's own lateness is reported so a rate point it could not keep
/// is marked invalid rather than fast.
///
/// One session runs a low and a high fixed rate; a fresh one then climbs a
/// fixed rate ladder for the knee, the peak goodput: requests per second
/// answered within the service's own `interactive` deadline (5 ms). Every
/// response must be bit-identical to the same event sequence driven through
/// a `StreamRuntime` directly.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include "cds/stream_pricer.hpp"
#include "common.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "runtime/stream_runtime.hpp"
#include "service/service.hpp"
#include "workload/curves.hpp"
#include "workload/feed.hpp"

namespace perfbench {

namespace {

using namespace cdsflow;

constexpr std::size_t kTenants = 3;
constexpr std::size_t kRequestOptions = 64;
constexpr double kDeadlineUs = 5000.0;  // the `interactive` class
/// Median generator lateness beyond which a rate point is invalid.
constexpr double kMaxLagUs = 1000.0;

/// Offered rates, requests/s over all tenants. Chosen once from the knee on
/// a 4-core AVX-512 host and frozen as absolute numbers.
constexpr double kLowRps = 500.0;
constexpr double kHighRps = 3000.0;
const std::vector<double> kLadderRps = {2000, 3000, 4000,  5000,  6000, 7000,
                                        8000, 9000, 10000, 11000, 12000};

/// Admission fits pinned (probed once with calibrate_stream_fit on the same
/// host), so shed decisions never depend on a per-run probe.
engine::BackendCandidate pinned_fit(bool risk) {
  engine::BackendCandidate fit;
  fit.engine_name = risk ? "cpu-vec-risk" : "cpu-vec";
  fit.watts = 1.0;
  fit.options_per_second = risk ? 210000.0 : 360000.0;
  fit.setup_seconds = risk ? 0.0005 : 0.0;
  return fit;
}

runtime::StreamConfig stream_config(bool risk) {
  runtime::StreamConfig s;
  s.engine = risk ? "cpu-vec-risk" : "cpu-vec";
  s.lanes = 1;
  s.max_batch = 256;
  s.max_wait_us = 200;
  return s;
}

bool tenant_is_risk(std::size_t t) { return t == kTenants - 1; }

/// One request of a tenant's cyclic feed: 64 options, then a quote update.
struct Step {
  std::vector<cds::CdsOption> options;
  std::uint32_t knot = 0;
  double rate = 0.0;
};

std::vector<Step> make_steps(std::uint64_t seed, std::uint32_t tenant,
                             std::size_t requests,
                             const cds::TermStructure& hazard) {
  workload::QuoteFeedSpec spec;
  spec.events = requests * (kRequestOptions + 1);
  spec.hazard_update_every = kRequestOptions + 1;
  spec.book.maturity_tenor_grid = {1.0, 3.0, 5.0, 7.0, 10.0};
  spec.seed = seed;
  spec.tenant = tenant;
  std::vector<Step> steps;
  Step open;
  for (const auto& event : workload::make_quote_feed(spec, hazard)) {
    if (event.kind == workload::QuoteFeedEvent::Kind::kHazardQuote) {
      open.knot = static_cast<std::uint32_t>(event.knot);
      open.rate = event.rate;
      steps.push_back(std::move(open));
      open = {};
    } else {
      open.options.push_back(event.option);
    }
  }
  return steps;
}

std::uint64_t hash_response(const std::vector<cds::SpreadResult>& results,
                            const cds::Sensitivities* greeks) {
  BitHash h;
  for (std::size_t i = 0; i < results.size(); ++i) {
    h.add_value(results[i].id);
    h.add_value(std::bit_cast<std::uint64_t>(results[i].spread_bps));
    if (greeks != nullptr) {
      const auto& g = greeks[i];
      for (const double v : {g.spread_bps, g.cs01, g.ir01, g.rec01, g.jtd}) {
        h.add_value(std::bit_cast<std::uint64_t>(v));
      }
    }
  }
  return h.value();
}

enum Phase : std::uint8_t { kWarm = 0, kLow = 1, kHigh = 2, kLadder = 3 };

enum Status : std::uint8_t {
  kPending = 0,
  kOk = 1,
  kDeferred = 2,
  kShed = 3,
  kRejected = 4,
};

/// Per-request record. The generator writes the send side, the receiver the
/// response side; the main thread reads both after joining them.
struct Req {
  std::int64_t intended_ns = 0;
  std::int64_t send_ns = 0;  ///< when the generator started sending
  std::int64_t sent_ns = 0;  ///< when the write returned
  std::int64_t recv_ns = 0;
  std::uint64_t hash = 0;
  std::uint8_t tenant = 0;
  std::uint8_t phase = kWarm;
  std::uint8_t status = kPending;
};

/// Traced-only per-request stamps.
struct ReqTrace {
  std::int64_t encoded_ns = 0;
  std::int64_t decoded_ns = 0;
  std::int64_t frame_start_ns = 0;
  std::int64_t frame_end_ns = 0;
  std::uint32_t bytes_out = 0;
};

struct Tick {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t harvested = 0;
};

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Benchmark-side decorator: times every call the socket server makes into
/// the PricingService. Runs on the server loop thread only.
class TimedHandler final : public net::ServerHandler {
 public:
  TimedHandler(service::PricingService& inner, std::vector<ReqTrace>& trace)
      : inner_(inner), trace_(trace) {
    ticks_.reserve(1 << 20);
  }

  void on_frame(net::Server& server, int conn, net::Frame frame) override {
    const std::uint32_t request = frame.request;
    const bool is_request = frame.type == net::FrameType::kPriceRequest ||
                            frame.type == net::FrameType::kRiskRequest;
    const double cpu = thread_cpu_seconds();
    const auto a = now_ns();
    inner_.on_frame(server, conn, std::move(frame));
    const auto b = now_ns();
    cpu_s_ += thread_cpu_seconds() - cpu;
    frame_ns_ += b - a;
    if (is_request && request >= 1 && request <= trace_.size()) {
      trace_[request - 1].frame_start_ns = a;
      trace_[request - 1].frame_end_ns = b;
      frame_us_.push_back(static_cast<double>(b - a) * 1e-3);
    }
  }
  void on_malformed(net::Server& server, int conn,
                    const std::string& error) override {
    inner_.on_malformed(server, conn, error);
  }
  void on_tick(net::Server& server) override {
    const std::uint64_t before = inner_.stats().responses;
    const double cpu = thread_cpu_seconds();
    const auto a = now_ns();
    inner_.on_tick(server);
    const auto b = now_ns();
    cpu_s_ += thread_cpu_seconds() - cpu;
    tick_ns_ += b - a;
    if (ticks_.size() < ticks_.capacity()) {
      ticks_.push_back({a, b, inner_.stats().responses - before});
    }
  }
  void on_disconnect(int conn) override { inner_.on_disconnect(conn); }

  std::int64_t busy_ns() const { return frame_ns_ + tick_ns_; }
  /// Loop-thread CPU time spent inside the service calls.
  double cpu_s() const { return cpu_s_; }
  const std::vector<Tick>& ticks() const { return ticks_; }
  const std::vector<double>& frame_us() const { return frame_us_; }

 private:
  service::PricingService& inner_;
  std::vector<ReqTrace>& trace_;
  std::vector<Tick> ticks_;
  std::vector<double> frame_us_;
  std::int64_t frame_ns_ = 0;
  std::int64_t tick_ns_ = 0;
  double cpu_s_ = 0.0;
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect(" + path + ") failed");
  }
  return fd;
}

void write_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("client write failed");
    }
    off += static_cast<std::size_t>(n);
  }
}

/// One complete service stack plus its clients: PricingService behind a
/// net::Server loop thread, three client connections and a receiver thread.
class Session {
 public:
  Session(const cds::TermStructure& interest, const cds::TermStructure& hazard,
          const std::vector<std::vector<Step>>& steps,
          const std::string& socket_path, std::size_t capacity, bool traced)
      : steps_(steps), traced_(traced) {
    service::ServiceConfig config;
    for (std::size_t t = 0; t < kTenants; ++t) {
      service::TenantSpec spec;
      spec.id = static_cast<std::uint32_t>(t + 1);
      spec.name = tenant_is_risk(t) ? "risk" : "price-" + std::to_string(t + 1);
      spec.deadline = *service::find_deadline_class(
          tenant_is_risk(t) ? "standard" : "interactive");
      spec.stream = stream_config(tenant_is_risk(t));
      spec.fit = pinned_fit(tenant_is_risk(t));
      config.tenants.push_back(std::move(spec));
    }
    reqs_.resize(capacity);
    if (traced_) trace_.resize(capacity);
    pricing_ = std::make_unique<service::PricingService>(config, interest,
                                                         hazard);
    server_ = std::make_unique<net::Server>(net::ServerConfig{socket_path});
    handler_ = std::make_unique<TimedHandler>(*pricing_, trace_);
    net::ServerHandler* handler =
        traced_ ? static_cast<net::ServerHandler*>(handler_.get())
                : static_cast<net::ServerHandler*>(pricing_.get());
    loop_ = std::thread([this, handler] {
      const double cpu0 = thread_cpu_seconds();
      server_->run(*handler);
      loop_cpu_s_ = thread_cpu_seconds() - cpu0;
    });
    try {
      for (std::size_t t = 0; t < kTenants; ++t) {
        fds_[t] = connect_unix(socket_path);
      }
    } catch (...) {
      stop();
      throw;
    }
    receiver_ = std::thread([this] { receive_loop(); });
  }

  ~Session() { stop(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Sends Poisson arrivals at `rps` for `seconds`; returns the index range
  /// of the requests it sent.
  std::pair<std::size_t, std::size_t> offer(double rps, double seconds,
                                            Phase phase,
                                            std::mt19937_64& rng) {
    std::exponential_distribution<double> gap(rps);
    std::uniform_int_distribution<std::size_t> pick(0, kTenants - 1);
    const std::size_t first = sent_.load(std::memory_order_relaxed);
    const auto t0 = now_ns();
    const auto end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    double offset = 0.0;
    for (;;) {
      offset += gap(rng);
      const std::int64_t intended = t0 + static_cast<std::int64_t>(offset * 1e9);
      if (intended >= end) break;
      const std::size_t i = sent_.load(std::memory_order_relaxed);
      if (i >= reqs_.size()) break;
      const std::size_t t = pick(rng);
      if (now_ns() < intended) {
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(intended)));
      }
      send(i, t, intended, phase);
    }
    return {first, sent_.load(std::memory_order_relaxed)};
  }

  /// Closed-loop warm-up: `n` requests round-robin over the tenants, each
  /// sent when the previous one has been answered.
  void warm(std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = sent_.load(std::memory_order_relaxed);
      if (i >= reqs_.size()) return;
      send(i, k % kTenants, now_ns(), kWarm);
      if (!drain(1.0)) return;
    }
  }

  /// Waits until every request sent so far has an answer, or `seconds`.
  bool drain(double seconds) {
    const auto end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (answered_.load(std::memory_order_acquire) <
           sent_.load(std::memory_order_relaxed)) {
      if (now_ns() > end) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  void stop() {
    if (stopped_) return;
    stopped_ = true;
    done_.store(true, std::memory_order_release);
    if (receiver_.joinable()) receiver_.join();
    for (int& fd : fds_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    server_->stop();
    if (loop_.joinable()) loop_.join();
  }

  std::size_t sent() const { return sent_.load(std::memory_order_relaxed); }
  const std::vector<Req>& reqs() const { return reqs_; }
  const std::vector<ReqTrace>& trace() const { return trace_; }
  service::PricingService& pricing() { return *pricing_; }
  const TimedHandler& handler() const { return *handler_; }
  double loop_cpu_s() const { return loop_cpu_s_; }
  std::int64_t started_ns() const { return started_ns_; }
  /// Mean response bytes per frame read (valid after stop()).
  double bytes_in_per_frame() const {
    return frames_in_ == 0 ? 0.0
                           : static_cast<double>(bytes_in_) /
                                 static_cast<double>(frames_in_);
  }

 private:
  void send(std::size_t i, std::size_t t, std::int64_t intended,
            Phase phase) {
    Req& r = reqs_[i];
    r.intended_ns = intended;
    r.tenant = static_cast<std::uint8_t>(t);
    r.phase = phase;
    r.send_ns = now_ns();
    const Step& step = steps_[t][cursor_[t] % steps_[t].size()];
    ++cursor_[t];
    const auto tenant = static_cast<std::uint32_t>(t + 1);
    auto bytes = net::encode_price_request(
        tenant, static_cast<std::uint32_t>(i + 1), step.options,
        tenant_is_risk(t));
    if (traced_) {
      trace_[i].encoded_ns = now_ns();
      trace_[i].bytes_out = static_cast<std::uint32_t>(bytes.size());
    }
    const auto quote = net::encode_quote_update(tenant, step.knot, step.rate);
    bytes.insert(bytes.end(), quote.begin(), quote.end());
    sent_.store(i + 1, std::memory_order_release);
    write_all(fds_[t], bytes);
    r.sent_ns = now_ns();
  }

  void receive_loop() {
    std::vector<std::uint8_t> buf(1 << 16);
    pollfd pfds[kTenants];
    for (std::size_t t = 0; t < kTenants; ++t) {
      pfds[t] = {fds_[t], POLLIN, 0};
    }
    while (!done_.load(std::memory_order_acquire)) {
      const int rc = ::poll(pfds, kTenants, 5);
      if (rc <= 0) continue;
      for (std::size_t t = 0; t < kTenants; ++t) {
        if ((pfds[t].revents & POLLIN) == 0) continue;
        const ssize_t n = ::read(fds_[t], buf.data(), buf.size());
        if (n <= 0) continue;
        const std::int64_t recv = now_ns();
        bytes_in_ += static_cast<std::uint64_t>(n);
        readers_[t].feed(buf.data(), static_cast<std::size_t>(n));
        while (auto frame = readers_[t].next()) {
          const std::int64_t decoded = now_ns();
          const std::size_t i = frame->request;
          if (i == 0 || i > reqs_.size()) continue;
          Req& r = reqs_[i - 1];
          r.recv_ns = recv;
          if (frame->type == net::FrameType::kResult) {
            r.status = frame->status == net::kResultDeferred ? kDeferred : kOk;
            r.hash = hash_response(
                frame->results, frame->risk ? frame->greeks.data() : nullptr);
          } else {
            r.status = frame->reason == net::RejectReason::kOverload
                           ? kShed
                           : kRejected;
          }
          if (traced_) trace_[i - 1].decoded_ns = decoded;
          ++frames_in_;
          answered_.fetch_add(1, std::memory_order_release);
        }
      }
    }
  }

  const std::vector<std::vector<Step>>& steps_;
  bool traced_;
  std::vector<Req> reqs_;
  std::vector<ReqTrace> trace_;
  std::unique_ptr<service::PricingService> pricing_;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<TimedHandler> handler_;
  int fds_[kTenants] = {-1, -1, -1};
  net::FrameReader readers_[kTenants];
  std::vector<std::size_t> cursor_ = std::vector<std::size_t>(kTenants, 0);
  std::atomic<std::size_t> sent_{0};
  std::atomic<std::size_t> answered_{0};
  std::atomic<bool> done_{false};
  std::uint64_t bytes_in_ = 0;   ///< receiver thread only
  std::uint64_t frames_in_ = 0;  ///< receiver thread only
  double loop_cpu_s_ = 0.0;
  std::int64_t started_ns_ = now_ns();
  bool stopped_ = false;
  std::thread loop_;
  std::thread receiver_;
};

struct PhaseStats {
  std::vector<double> latency_us;  ///< intended -> response
  std::vector<double> lag_us;      ///< intended -> send start
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;  ///< shed, rejected or unanswered
  double p50() const { return median(latency_us); }
  double p99() const { return pct(latency_us, 99.0); }
  double lag_p99() const { return pct(lag_us, 99.0); }
  /// The generator kept the schedule: its median lateness stays small (the
  /// host's own scheduling jitter shows in the tail, not the median).
  bool valid() const { return median(lag_us) <= kMaxLagUs; }
  /// Fraction of requests answered within `limit_us` of their intended
  /// send time.
  double within(double limit_us) const {
    if (latency_us.empty()) return 0.0;
    std::size_t n = 0;
    for (const double v : latency_us) n += v <= limit_us ? 1 : 0;
    return static_cast<double>(n) / static_cast<double>(latency_us.size());
  }
};

PhaseStats phase_stats(const std::vector<Req>& reqs, std::size_t begin,
                       std::size_t end) {
  PhaseStats s;
  for (std::size_t i = begin; i < end; ++i) {
    const Req& r = reqs[i];
    ++s.requests;
    s.lag_us.push_back(static_cast<double>(r.send_ns - r.intended_ns) * 1e-3);
    if (r.status == kOk || r.status == kDeferred) {
      s.latency_us.push_back(static_cast<double>(r.recv_ns - r.intended_ns) *
                             1e-3);
    } else {
      ++s.failed;
      // A refused or unanswered request misses every latency limit.
      s.latency_us.push_back(1e12);
    }
  }
  return s;
}

/// Drives the identical per-tenant event sequence through a StreamRuntime
/// and returns the number of requests whose response bits differ.
std::uint64_t bit_identity_mismatches(const cds::TermStructure& interest,
                                      const cds::TermStructure& hazard,
                                      const std::vector<std::vector<Step>>& steps,
                                      const std::vector<Req>& reqs,
                                      std::size_t n_sent) {
  std::uint64_t bad = 0;
  for (std::size_t t = 0; t < kTenants; ++t) {
    const bool risk = tenant_is_risk(t);
    runtime::StreamRuntime direct(interest, hazard, stream_config(risk));
    std::vector<std::size_t> priced;  // request indices the service priced
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < n_sent; ++i) {
      if (reqs[i].tenant != t) continue;
      const Step& step = steps[t][cursor++ % steps[t].size()];
      if (reqs[i].status != kShed && reqs[i].status != kRejected) {
        for (const auto& option : step.options) direct.push(option);
        priced.push_back(i);
      }
      direct.push_hazard_quote(step.knot, step.rate);
    }
    const runtime::StreamReport report = direct.finish();
    std::size_t offset = 0;
    std::vector<cds::SpreadResult> rows;
    for (const std::size_t i : priced) {
      rows.assign(report.run.results.begin() + offset,
                  report.run.results.begin() + offset + kRequestOptions);
      const std::uint64_t want = hash_response(
          rows, risk ? report.run.sensitivities.data() + offset : nullptr);
      offset += kRequestOptions;
      // Unanswered requests are counted as timeouts by the phase stats.
      if (reqs[i].status != kPending && reqs[i].hash != want) ++bad;
    }
  }
  return bad;
}

/// Traced run: per-request span trees over the fixed-rate phases, the
/// service decorator's timings and the client codec timings.
void analyse_trace(Result& r, Session& s, double session_s,
                   std::size_t low_begin, std::size_t low_end,
                   std::vector<double>& service_lat_lo, Tracer& tracer) {
  const auto& reqs = s.reqs();
  const auto& trace = s.trace();
  const TimedHandler& h = s.handler();
  std::vector<double> encode_us, decode_us, wire_us, bytes_out, tick_us;
  std::uint64_t empty_ticks = 0;
  for (const Tick& t : h.ticks()) {
    tick_us.push_back(static_cast<double>(t.end_ns - t.start_ns) * 1e-3);
    if (t.harvested == 0) ++empty_ticks;
  }
  // Service-side latency (admission -> harvest) in completion order per
  // tenant; completion is FIFO per tenant, so it lines up with the tenant's
  // admitted requests in order.
  std::vector<std::vector<double>> service_lat(kTenants);
  for (std::size_t t = 0; t < kTenants; ++t) {
    service_lat[t] =
        s.pricing().session(static_cast<std::uint32_t>(t + 1))->latency_us();
  }
  std::vector<std::size_t> next(kTenants, 0);
  const std::vector<Tick>& ticks = h.ticks();
  for (std::size_t i = 0; i < s.sent(); ++i) {
    const Req& q = reqs[i];
    const ReqTrace& tr = trace[i];
    if (q.status == kShed || q.status == kRejected) continue;
    const std::size_t k = next[q.tenant]++;
    if (q.status == kPending || k >= service_lat[q.tenant].size()) continue;
    const double svc_us = service_lat[q.tenant][k];
    if (q.phase != kLow && q.phase != kHigh) continue;
    if (i >= low_begin && i < low_end) service_lat_lo.push_back(svc_us);
    encode_us.push_back(static_cast<double>(tr.encoded_ns - q.send_ns) * 1e-3);
    decode_us.push_back(static_cast<double>(tr.decoded_ns - q.recv_ns) * 1e-3);
    wire_us.push_back(static_cast<double>(q.recv_ns - q.sent_ns) * 1e-3 -
                      svc_us);
    bytes_out.push_back(tr.bytes_out);
    // Span tree of one request; time inside no child span is the request's
    // unattributed (transit) time.
    const std::uint64_t id = i + 1;
    const std::int64_t root = tracer.add("request", "unattributed",
                                         q.intended_ns, tr.decoded_ns, -1, id);
    tracer.add("gen.lag", "gen", q.intended_ns, q.send_ns, root, id);
    tracer.add("net.encode", "net", q.send_ns, tr.encoded_ns, root, id);
    tracer.add("net.send", "net", tr.encoded_ns, q.sent_ns, root, id);
    tracer.add("service.on_frame", "service", tr.frame_start_ns,
               tr.frame_end_ns, root, id);
    const std::int64_t harvest =
        tr.frame_end_ns + static_cast<std::int64_t>(svc_us * 1e3);
    tracer.add("runtime.admit_to_harvest", "runtime", tr.frame_end_ns,
               harvest, root, id);
    const auto it = std::lower_bound(
        ticks.begin(), ticks.end(), harvest,
        [](const Tick& t, std::int64_t v) { return t.end_ns < v; });
    if (it != ticks.end() && it->start_ns <= harvest) {
      tracer.add("service.on_tick", "service", harvest, it->end_ns, root, id);
    }
    tracer.add("net.decode", "net", q.recv_ns, tr.decoded_ns, root, id);
  }
  r.put("net.encode_us", median(encode_us), "us");
  r.put("net.decode_us", median(decode_us), "us");
  r.put("net.wire_us", median(wire_us), "us");
  r.put("net.bytes_out_per_req", mean(bytes_out), "bytes");
  r.put("net.bytes_in_per_req", s.bytes_in_per_frame(), "bytes");
  const double busy_s = static_cast<double>(h.busy_ns()) * 1e-9;
  r.put("net.loop_self_cpu_frac", (s.loop_cpu_s() - h.cpu_s()) / session_s,
        "frac");
  r.put("service.on_frame_us_p50", median(h.frame_us()), "us");
  r.put("service.on_frame_us_p99", pct(h.frame_us(), 99.0), "us");
  r.put("service.on_tick_us_p50", median(tick_us), "us");
  r.put("service.on_tick_us_p99", pct(tick_us, 99.0), "us");
  r.put("service.busy_frac", busy_s / session_s, "frac");
  r.put("service.empty_tick_frac",
        ticks.empty() ? 0.0
                      : static_cast<double>(empty_ticks) /
                            static_cast<double>(ticks.size()),
        "frac");
}

/// Traced run: the runtime and kernel layers driven directly -- paced
/// StreamRuntime::play runs of tenant 1's feed at its share of the high and
/// of the low rate, and single StreamPricer calls.
void probe_direct_layers(Result& r, const cds::TermStructure& interest,
                         const cds::TermStructure& hazard,
                         const std::vector<Step>& steps,
                         const std::vector<double>& service_lat_lo,
                         std::mt19937_64& rng) {
  // Up to two seconds of the feed, Poisson-paced at `rps`.
  auto paced_play = [&](double rps) {
    std::vector<workload::QuoteFeedEvent> feed;
    std::exponential_distribution<double> gap(rps);
    double offset = 0.0;
    const std::size_t n =
        std::min<std::size_t>(steps.size(), static_cast<std::size_t>(rps * 2));
    for (std::size_t k = 0; k < n; ++k) {
      offset += gap(rng);
      for (const auto& option : steps[k].options) {
        workload::QuoteFeedEvent e;
        e.offset_seconds = offset;
        e.option = option;
        feed.push_back(e);
      }
      workload::QuoteFeedEvent q;
      q.kind = workload::QuoteFeedEvent::Kind::kHazardQuote;
      q.offset_seconds = offset;
      q.knot = steps[k].knot;
      q.rate = steps[k].rate;
      feed.push_back(q);
    }
    runtime::StreamRuntime direct(interest, hazard, stream_config(false));
    return direct.play(feed);
  };
  const runtime::StreamReport rep = paced_play(kHighRps / kTenants);
  r.put("runtime.ingest_p50_us", rep.p50_latency_seconds * 1e6, "us");
  r.put("runtime.ingest_p99_us", rep.p99_latency_seconds * 1e6, "us");
  r.put("runtime.batch_events_mean",
        rep.batches.empty() ? 0.0
                            : static_cast<double>(rep.events_priced) /
                                  static_cast<double>(rep.batches.size()),
        "events");
  r.put("runtime.queue_high_water", static_cast<double>(rep.queue_high_water),
        "events");
  r.put("runtime.blocked_pushes", static_cast<double>(rep.blocked_pushes),
        "count");
  // What the service adds on top of the runtime at the low rate: mostly the
  // wait for the next tick to harvest a finished batch.
  const runtime::StreamReport low = paced_play(kLowRps / kTenants);
  r.put("service.harvest_wait_us",
        median(service_lat_lo) - low.p50_latency_seconds * 1e6, "us");

  cds::StreamPricerConfig config;
  config.kernel_level = cds::simd::active_level();
  cds::StreamPricer pricer(interest, hazard, config);
  std::vector<cds::SpreadResult> out(kRequestOptions);
  std::vector<double> batch_us, quote_us;
  for (std::size_t k = 0; k < std::min<std::size_t>(steps.size(), 512); ++k) {
    const auto a = now_ns();
    pricer.price(steps[k].options, out);
    const auto b = now_ns();
    pricer.update_hazard_quote(steps[k].knot, steps[k].rate);
    const auto c = now_ns();
    batch_us.push_back(static_cast<double>(b - a) * 1e-3);
    quote_us.push_back(static_cast<double>(c - b) * 1e-3);
  }
  r.put("cds.stream_batch_us", median(batch_us), "us");
  r.put("cds.quote_update_us", median(quote_us), "us");
  const auto& st = pricer.stats();
  r.put("cds.retab_ratio",
        st.full_rebuild_grids == 0
            ? 0.0
            : static_cast<double>(st.grids_retabulated) /
                  static_cast<double>(st.full_rebuild_grids),
        "ratio");
}

}  // namespace

Result run_quote_stream(const Options& opt) {
  Result r;
  r.workload = "quote-stream";
  r.traced = opt.trace;

  const auto t_gen = now_ns();
  const cds::TermStructure interest = workload::paper_interest_curve();
  const cds::TermStructure hazard = workload::paper_hazard_curve();
  std::vector<std::vector<Step>> steps;
  for (std::size_t t = 0; t < kTenants; ++t) {
    steps.push_back(make_steps(opt.seed, static_cast<std::uint32_t>(t + 1),
                               opt.smoke ? 64 : 512, hazard));
  }
  r.put("gen_s", seconds_between(t_gen, now_ns()), "s");

  // Time split: low rate 25%, high rate 35%, ladder 40% of the run.
  const double low_s = 0.25 * opt.seconds;
  const double high_s = 0.35 * opt.seconds;
  const double rung_s =
      0.4 * opt.seconds / static_cast<double>(kLadderRps.size());
  constexpr std::size_t kWarmRequests = 24;
  const auto fixed_capacity = static_cast<std::size_t>(
      1.2 * (kLowRps * low_s + kHighRps * high_s) + kWarmRequests + 1024);
  double ladder_requests = kWarmRequests;
  for (const double rps : kLadderRps) ladder_requests += rps * rung_s;
  const auto ladder_capacity =
      static_cast<std::size_t>(1.2 * ladder_requests + 1024);
  const std::string socket_path =
      ".bench_build/qs-" + std::to_string(::getpid()) + ".sock";
  std::mt19937_64 rng(opt.seed * 0x9E3779B97F4A7C15ULL + 17);

  // A stack warmed with a few closed-loop requests per tenant.
  auto make_session = [&](bool traced, std::size_t capacity) {
    auto s = std::make_unique<Session>(interest, hazard, steps, socket_path,
                                       capacity, traced);
    s->warm(kWarmRequests);
    return s;
  };

  double untraced_low_p50 = 0.0;
  if (opt.trace) {
    // Untraced reference for the tracing overhead: the low phase alone.
    auto s = make_session(false, fixed_capacity);
    const auto range = s->offer(kLowRps, low_s, kLow, rng);
    s->drain(1.0);
    s->stop();
    untraced_low_p50 = phase_stats(s->reqs(), range.first, range.second).p50();
  }

  // Set-up: service, server and client construction plus the warm-up,
  // repeated; the last stack carries the fixed-rate phases.
  std::unique_ptr<Session> fixed;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    fixed.reset();
    const auto a = now_ns();
    fixed = make_session(opt.trace, fixed_capacity);
    setup.push_back(seconds_between(a, now_ns()));
  }
  r.set("setup_s", median(setup), "s");

  // Fixed rates: low, then high, on one session.
  Session& s = *fixed;
  const auto low = s.offer(kLowRps, low_s, kLow, rng);
  s.drain(1.0);
  const auto high = s.offer(kHighRps, high_s, kHigh, rng);
  s.drain(2.0);
  const double session_s = seconds_between(s.started_ns(), now_ns());
  s.stop();
  r.set("peak_rss_mb", peak_rss_mb(), "MB");

  const PhaseStats lo = phase_stats(s.reqs(), low.first, low.second);
  const PhaseStats hi = phase_stats(s.reqs(), high.first, high.second);
  // The end-to-end latencies are the low rate's p50 and p75: on a shared
  // host the high-rate latencies, and every p90 and p99, move with the
  // host's scheduling noise by more than the bounds allow. Those figures
  // stay in the record.
  r.set("p50_us", lo.p50(), "us");
  r.set("p75_us", pct(lo.latency_us, 75.0), "us");
  r.put("req_p90_us_lo", pct(lo.latency_us, 90.0), "us");
  r.put("req_p50_us_lo", lo.p50(), "us");
  r.put("req_p99_us_lo", lo.p99(), "us");
  r.put("req_p50_us_hi", hi.p50(), "us");
  r.put("req_p99_us_hi", hi.p99(), "us");
  r.put("rate_lo_rps", kLowRps, "req/s");
  r.put("rate_hi_rps", kHighRps, "req/s");
  r.put("session_s", session_s, "s");
  r.put("gen.lag_p99_us", std::max(lo.lag_p99(), hi.lag_p99()), "us");
  r.put("gen.valid_lo", lo.valid() ? 1 : 0, "bool");
  r.put("gen.valid_hi", hi.valid() ? 1 : 0, "bool");
  {
    // Drift across the high phase: the last tenth's p99 over the first's.
    const std::size_t n = high.second - high.first;
    const double head =
        phase_stats(s.reqs(), high.first, high.first + n / 10).p99();
    const double tail =
        phase_stats(s.reqs(), high.second - n / 10, high.second).p99();
    r.put("service.p99_drift", head > 0 ? tail / head : 0.0, "ratio");
  }
  const service::ServiceStats& stats = s.pricing().stats();
  r.put("service.admitted", static_cast<double>(stats.admitted), "count");
  r.put("service.deferred", static_cast<double>(stats.deferred), "count");
  r.put("service.shed", static_cast<double>(stats.shed), "count");
  r.put("service.rejects",
        static_cast<double>(stats.rejects_malformed +
                            stats.rejects_unknown_tenant +
                            stats.rejects_wrong_mode),
        "count");

  // The fixed rates must see no shed, reject or timeout, and every response
  // must be bit-identical to the direct run.
  r.attempted = lo.requests + hi.requests;
  r.fail(lo.failed + hi.failed,
         "requests shed, rejected or unanswered at a fixed rate");
  r.fail(bit_identity_mismatches(interest, hazard, steps, s.reqs(), s.sent()),
         "responses not bit-identical to a direct StreamRuntime");

  if (opt.trace) {
    Tracer tracer(true);
    std::vector<double> service_lat_lo;
    analyse_trace(r, s, session_s, low.first, low.second, service_lat_lo,
                  tracer);
    probe_direct_layers(r, interest, hazard, steps[0], service_lat_lo, rng);
    r.ledger = build_ledger(tracer.spans());
    r.spans = tracer.spans().size();
    r.trace_overhead_frac =
        untraced_low_p50 > 0 ? lo.p50() / untraced_low_p50 - 1.0 : 0.0;
    if (!opt.spans_path.empty()) {
      write_spans(opt.spans_path, tracer.spans());
    }
  }
  fixed.reset();

  // Rate ladder, on a fresh stack so the knee does not inherit the fixed
  // phases' history. A rung's goodput is the rate of requests answered
  // within the interactive deadline; a rung the generator could not keep is
  // invalid and has none. The climb stops once goodput has fallen well past
  // its peak or a rung's backlog does not drain.
  auto ladder = make_session(false, ladder_capacity);
  double knee = 0.0;
  for (std::size_t k = 0; k < kLadderRps.size(); ++k) {
    const auto range = ladder->offer(kLadderRps[k], rung_s, kLadder, rng);
    const bool drained = ladder->drain(2.0);
    // A backlog that did not drain ends the ladder; stopping first means no
    // late response is written while the rung is read.
    if (!drained) ladder->stop();
    const PhaseStats rung =
        phase_stats(ladder->reqs(), range.first, range.second);
    const double goodput =
        rung.valid() ? kLadderRps[k] * rung.within(kDeadlineUs) : 0.0;
    const std::string key =
        "ladder." + std::to_string(static_cast<int>(kLadderRps[k]));
    r.put(key + ".goodput_rps", goodput, "req/s");
    r.put(key + ".p50_us", rung.p50(), "us");
    r.put(key + ".lag_p50_us", median(rung.lag_us), "us");
    knee = std::max(knee, goodput);
    if (!drained || goodput < 0.8 * knee) break;
  }
  ladder->stop();
  r.put("ladder.shed", static_cast<double>(ladder->pricing().stats().shed),
        "count");
  r.fail(bit_identity_mismatches(interest, hazard, steps, ladder->reqs(),
                                 ladder->sent()),
         "ladder responses not bit-identical to a direct StreamRuntime");
  if (knee == 0.0) r.fail(1, "no ladder rung answered within the deadline");
  r.set("opts_per_s", knee * static_cast<double>(kRequestOptions), "opts/s");
  r.put("knee_rps", knee, "req/s");
  return r;
}

}  // namespace perfbench
