/// \file server.hpp
/// Single-threaded poll() event-loop socket server for the pricing service.
///
/// One thread, one poll() loop, no per-connection threads: the listener, a
/// self-pipe (the Waker) and every live connection share one pollfd set.
/// Each connection owns a net::FrameReader, so bytes may arrive in
/// arbitrary splits; completed frames are handed to the ServerHandler in
/// stream order. All handler callbacks run on the loop thread -- handler
/// state needs no locks, and Server::send()/close_connection() are loop-
/// thread-only by the same token (stop() and the Waker are the thread-safe
/// entry points). Writes are buffered per connection and flushed via
/// POLLOUT, so a slow reader never blocks the loop.
///
/// The loop has no timer: poll() blocks until a socket is ready or a Waker
/// byte arrives, then the loop does its I/O, drains the wake pipe and calls
/// on_tick() once. Work finishing on other threads (the service's runtime
/// lanes) reaches the loop by calling Waker::wake(); stop() sets a flag and
/// wakes the same way, so a wake byte alone never stops the loop.
///
/// A poisoned reader (net/codec.hpp) is a protocol violation: the handler
/// gets on_malformed() -- typically answering with an encoded kMalformed
/// reject -- and the connection is torn down after its outbound buffer
/// drains. Nothing after the first framing error is ever parsed.
///
/// Descriptor exhaustion: the server keeps one reserved descriptor. When
/// accept() fails with EMFILE/ENFILE it closes the reserve, accepts the
/// pending connection, closes it at once (the peer sees EOF) and reopens
/// the reserve, so a full descriptor table refuses clients instead of
/// leaving the listener readable and the loop spinning.
///
/// Transports: a unix-domain socket (path; used by tests and the bench --
/// no port collisions) or TCP on loopback/any (port 0 picks an ephemeral
/// port, readable via tcp_port()). The socket is bound and listening when
/// the constructor returns, so clients may connect before run() starts.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/codec.hpp"

namespace cdsflow::net {

struct ServerConfig {
  /// Non-empty: serve on this unix-domain socket path (unlinked first).
  std::string unix_path;
  /// Used when unix_path is empty: TCP port to bind (0 = ephemeral).
  std::uint16_t tcp_port = 0;
  int backlog = 16;
};

/// Thread-safe wake handle of a Server's loop: a self-pipe whose two ends
/// this object owns. wake() from any thread makes the loop run one
/// iteration (and so one on_tick()). Handed out as a shared_ptr, so a
/// holder that outlives the Server -- a runtime lane finishing a batch
/// during shutdown -- still writes into a live pipe, never a closed or
/// reused descriptor. Both ends are O_NONBLOCK: a full pipe (EAGAIN) means
/// a wake is already pending, so wake() never blocks.
class Waker {
 public:
  Waker();
  ~Waker();
  Waker(const Waker&) = delete;
  Waker& operator=(const Waker&) = delete;

  /// Any thread; never blocks.
  void wake() const;
  /// Loop thread: discards every pending wake byte.
  void drain() const;
  int read_fd() const { return read_fd_; }

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

class Server;

/// Event callbacks, all invoked on the loop thread inside run().
class ServerHandler {
 public:
  virtual ~ServerHandler() = default;
  /// A completed, structurally-valid frame from connection `conn`.
  virtual void on_frame(Server& server, int conn, Frame frame) = 0;
  /// The connection's stream is poisoned (`error` from the FrameReader).
  /// The server closes the connection after this returns (outbound bytes,
  /// e.g. a reject sent here, are flushed first).
  virtual void on_malformed(Server& server, int conn,
                            const std::string& error);
  /// Fires once per loop iteration: after the I/O that ended poll() and
  /// after the wake pipe is drained, so work published before a
  /// Waker::wake() is visible here. Never fires on a timer.
  virtual void on_tick(Server& server);
  /// The peer disconnected or the connection was torn down.
  virtual void on_disconnect(int conn);
};

class Server {
 public:
  /// Binds and listens; throws cdsflow::Error on any socket failure.
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Runs the event loop on the calling thread until stop(). Returns at
  /// once when stop() was already called.
  void run(ServerHandler& handler);

  /// Thread-safe: sets the stop flag, then wakes the loop, which returns
  /// from run() after finishing its current iteration (idempotent).
  void stop();

  /// The loop's wake handle (thread-safe to use; see Waker).
  const std::shared_ptr<Waker>& waker() const { return waker_; }

  /// Queues bytes to `conn` (loop thread only, i.e. from handler
  /// callbacks). Unknown connection ids are ignored (the peer may have
  /// disconnected between frame and response).
  void send(int conn, const std::vector<std::uint8_t>& bytes);

  /// Flushes `conn`'s outbound buffer, then closes it (loop thread only).
  void close_connection(int conn);

  /// Bound TCP port (the ephemeral one when config.tcp_port was 0);
  /// 0 for unix-domain servers.
  std::uint16_t tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return config_.unix_path; }
  std::size_t connections() const { return connections_.size(); }

 private:
  struct Connection {
    FrameReader reader;
    std::vector<std::uint8_t> outbound;
    std::size_t outbound_offset = 0;
    /// Close once the outbound buffer drains (reject-then-close path).
    bool closing = false;
  };

  void accept_ready();
  /// Returns false when the connection was torn down.
  bool read_ready(ServerHandler& handler, int fd);
  bool flush(int fd);
  void teardown(ServerHandler& handler, int fd, bool notify);

  ServerConfig config_;
  int listen_fd_ = -1;
  /// Spare descriptor, spent to accept-and-close a client at EMFILE.
  int reserve_fd_ = -1;
  std::shared_ptr<Waker> waker_;
  std::uint16_t tcp_port_ = 0;
  std::map<int, Connection> connections_;
  /// Set by stop() on any thread, read by the loop after each wake.
  std::atomic<bool> stop_requested_{false};
};

}  // namespace cdsflow::net
