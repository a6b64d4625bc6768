/// \file test_net_server.cpp
/// The socket server's event loop without a timer: a Waker from another
/// thread runs exactly the loop iterations it asks for, stop() is a flag
/// plus a wake, an idle loop stays asleep, a Waker outliving its Server is
/// harmless, and descriptor exhaustion refuses clients instead of spinning.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "net/server.hpp"
#include "runtime/stream_runtime.hpp"
#include "workload/curves.hpp"

namespace cdsflow {
namespace {

using namespace std::chrono_literals;

std::string unique_socket_path(const char* tag) {
  static int counter = 0;
  return "/tmp/cdsflow-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + "-" + std::to_string(counter++) +
         ".sock";
}

/// Counts loop iterations and mirrors the connection count out of the
/// loop thread.
class CountingHandler : public net::ServerHandler {
 public:
  void on_frame(net::Server&, int, net::Frame) override {}
  void on_tick(net::Server& server) override {
    connections.store(server.connections());
    ticks.fetch_add(1);
  }

  std::atomic<int> ticks{0};
  std::atomic<std::size_t> connections{0};
};

bool wait_until(const std::function<bool()>& done,
                std::chrono::milliseconds timeout = 5000ms) {
  const auto end = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() > end) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// Runs a server's loop on its own thread for the life of the object.
class LoopThread {
 public:
  LoopThread(net::Server& server, net::ServerHandler& handler)
      : server_(server),
        done_(std::async(std::launch::async,
                         [&server, &handler] { server.run(handler); })) {}
  ~LoopThread() {
    server_.stop();
    done_.wait();
  }
  bool stopped_within(std::chrono::milliseconds timeout) {
    return done_.wait_for(timeout) == std::future_status::ready;
  }

 private:
  net::Server& server_;
  std::future<void> done_;
};

int connect_unix(int fd, const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
}

TEST(ServerLoop, WakeFromAnotherThreadRunsOnTickAndKeepsRunning) {
  net::Server server({unique_socket_path("wake")});
  CountingHandler handler;
  LoopThread loop(server, handler);

  for (int want = 1; want <= 3; ++want) {
    std::thread([&server] { server.waker()->wake(); }).join();
    ASSERT_TRUE(wait_until([&] { return handler.ticks.load() >= want; }))
        << "wake " << want << " did not run on_tick";
  }
  EXPECT_FALSE(loop.stopped_within(20ms)) << "a wake stopped the loop";
}

TEST(ServerLoop, WakeBeforeRunIsNotLost) {
  net::Server server({unique_socket_path("early")});
  CountingHandler handler;
  server.waker()->wake();
  LoopThread loop(server, handler);
  EXPECT_TRUE(wait_until([&] { return handler.ticks.load() >= 1; }));
}

/// Wakes its own loop from inside on_tick, the way a batch completing
/// during a harvest does.
class RewakingHandler : public CountingHandler {
 public:
  void on_tick(net::Server& server) override {
    CountingHandler::on_tick(server);
    if (ticks.load() < 3) server.waker()->wake();
  }
};

TEST(ServerLoop, WakeDuringOnTickIsNotLost) {
  // The loop drains the wake pipe before on_tick, so a wake written during
  // on_tick ends the next poll(); draining after on_tick would swallow it.
  net::Server server({unique_socket_path("rewake")});
  RewakingHandler handler;
  LoopThread loop(server, handler);
  server.waker()->wake();
  EXPECT_TRUE(wait_until([&] { return handler.ticks.load() >= 3; }))
      << "a wake issued inside on_tick was lost";
}

TEST(ServerLoop, StopFromAnotherThreadStopsAndIsIdempotent) {
  net::Server server({unique_socket_path("stop")});
  CountingHandler handler;
  LoopThread loop(server, handler);
  std::thread([&server] {
    server.stop();
    server.stop();
  }).join();
  EXPECT_TRUE(loop.stopped_within(5000ms));
  server.stop();  // after run() returned: still a no-op
  // The stop is sticky: a later run() returns at once.
  server.run(handler);
}

TEST(ServerLoop, IdleLoopDoesNotTick) {
  net::Server server({unique_socket_path("idle")});
  CountingHandler handler;
  LoopThread loop(server, handler);
  std::this_thread::sleep_for(100ms);
  // No I/O and no wake: a timer-driven loop would have ticked ~100 times.
  EXPECT_LE(handler.ticks.load(), 2);
}

TEST(ServerLoop, WakerOutlivingItsServerIsHarmless) {
  std::shared_ptr<net::Waker> waker;
  {
    net::Server server({unique_socket_path("orphan")});
    CountingHandler handler;
    LoopThread loop(server, handler);
    waker = server.waker();
  }
  // The Waker still owns both pipe ends: wakes land in a live pipe (no
  // SIGPIPE, no write to a closed or reused descriptor), and filling it
  // past capacity does not block.
  for (int i = 0; i < 200000; ++i) waker->wake();

  // The service's shape: runtime lanes holding the wake after the server
  // is gone.
  runtime::StreamConfig cfg;
  cfg.lanes = 2;
  cfg.max_batch = 4;
  runtime::StreamRuntime rt(workload::paper_interest_curve(64, 11),
                            workload::paper_hazard_curve(64, 23), cfg);
  std::atomic<int> notified{0};
  rt.set_completion_notifier([waker, &notified] {
    waker->wake();
    notified.fetch_add(1);
  });
  for (std::int32_t i = 0; i < 32; ++i) {
    cds::CdsOption option;
    option.id = i;
    option.maturity_years = 5.0;
    ASSERT_TRUE(rt.push(option));
  }
  const auto report = rt.finish();
  EXPECT_EQ(report.run.results.size(), 32u);
  EXPECT_EQ(notified.load(), static_cast<int>(report.batches.size()));
}

TEST(ServerLimits, DescriptorExhaustionRefusesClientsWithoutSpinning) {
  const std::string path = unique_socket_path("emfile");
  net::Server server({path});
  CountingHandler handler;
  LoopThread loop(server, handler);

  // Client sockets exist before the limit drops; connect() needs no new
  // descriptor, so only the server's accept() runs out.
  constexpr int kClients = 8;
  std::vector<int> clients;
  for (int i = 0; i < kClients; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    clients.push_back(fd);
  }

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int lowest_free = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(lowest_free) + 2;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  const int ticks_before = handler.ticks.load();
  int connected = 0;
  for (const int fd : clients) connected += connect_unix(fd, path) == 0;
  std::this_thread::sleep_for(200ms);
  const int ticks = handler.ticks.load() - ticks_before;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  EXPECT_EQ(connected, kClients);
  // A spinning loop runs hundreds of thousands of iterations here; an
  // event-driven one runs about one per connection.
  EXPECT_LE(ticks, 4 * kClients) << "the loop spun at fd exhaustion";

  // Refused clients read EOF at once; accepted ones stay open.
  int refused = 0;
  int open = 0;
  for (const int fd : clients) {
    char byte = 0;
    const ssize_t n = ::recv(fd, &byte, 1, MSG_DONTWAIT);
    if (n == 0) ++refused;
    if (n < 0 && errno == EAGAIN) ++open;
  }
  EXPECT_GE(refused, kClients - 2);
  EXPECT_GE(open, 1);
  EXPECT_EQ(refused + open, kClients);
  EXPECT_TRUE(wait_until([&] {
    return handler.connections.load() == static_cast<std::size_t>(open);
  }));

  // With descriptors back, the server accepts again.
  const int late = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(late, 0);
  ASSERT_EQ(connect_unix(late, path), 0);
  EXPECT_TRUE(wait_until([&] {
    return handler.connections.load() == static_cast<std::size_t>(open) + 1;
  })) << "no accept after the limit was restored";

  ::close(late);
  for (const int fd : clients) ::close(fd);
}

}  // namespace
}  // namespace cdsflow
