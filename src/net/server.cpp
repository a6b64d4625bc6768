#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace cdsflow::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  CDSFLOW_EXPECT(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                 "fcntl(O_NONBLOCK) failed");
}

int open_reserve_fd() { return ::open("/dev/null", O_RDONLY | O_CLOEXEC); }

}  // namespace

Waker::Waker() {
  int pipe_fds[2];
  CDSFLOW_EXPECT(::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) == 0,
                 std::string("wake pipe creation failed: ") +
                     std::strerror(errno));
  read_fd_ = pipe_fds[0];
  write_fd_ = pipe_fds[1];
}

Waker::~Waker() {
  ::close(read_fd_);
  ::close(write_fd_);
}

void Waker::wake() const {
  const char byte = 0;
  // EAGAIN: the pipe is full, so a wake is already pending.
  [[maybe_unused]] const auto n = ::write(write_fd_, &byte, 1);
}

void Waker::drain() const {
  char bytes[64];
  while (::read(read_fd_, bytes, sizeof(bytes)) > 0) {
  }
}

void ServerHandler::on_malformed(Server&, int, const std::string&) {}
void ServerHandler::on_tick(Server&) {}
void ServerHandler::on_disconnect(int) {}

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      reserve_fd_(open_reserve_fd()),
      waker_(std::make_shared<Waker>()) {
  if (!config_.unix_path.empty()) {
    CDSFLOW_EXPECT(config_.unix_path.size() < sizeof(sockaddr_un{}.sun_path),
                   "unix socket path too long");
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    CDSFLOW_EXPECT(listen_fd_ >= 0, "socket(AF_UNIX) failed");
    ::unlink(config_.unix_path.c_str());  // stale socket from a prior run
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    CDSFLOW_EXPECT(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                   "bind(" + config_.unix_path + ") failed: " +
                       std::strerror(errno));
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    CDSFLOW_EXPECT(listen_fd_ >= 0, "socket(AF_INET) failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(config_.tcp_port);
    CDSFLOW_EXPECT(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                   "bind(port " + std::to_string(config_.tcp_port) +
                       ") failed: " + std::strerror(errno));
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    CDSFLOW_EXPECT(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                                 &len) == 0,
                   "getsockname failed");
    tcp_port_ = ntohs(bound.sin_port);
  }
  CDSFLOW_EXPECT(::listen(listen_fd_, config_.backlog) == 0,
                 std::string("listen failed: ") + std::strerror(errno));
  set_nonblocking(listen_fd_);
}

Server::~Server() {
  for (const auto& [fd, conn] : connections_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
}

void Server::stop() {
  stop_requested_.store(true, std::memory_order_release);
  waker_->wake();
}

void Server::send(int conn, const std::vector<std::uint8_t>& bytes) {
  const auto it = connections_.find(conn);
  if (it == connections_.end()) return;
  it->second.outbound.insert(it->second.outbound.end(), bytes.begin(),
                             bytes.end());
}

void Server::close_connection(int conn) {
  const auto it = connections_.find(conn);
  if (it != connections_.end()) it->second.closing = true;
}

void Server::accept_ready() {
  // A reserve lost to another thread at EMFILE is retaken here once the
  // table has room again.
  if (reserve_fd_ < 0) reserve_fd_ = open_reserve_fd();
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd >= 0) {
      set_nonblocking(fd);
      connections_.emplace(fd, Connection{});
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // backlog drained
    if (errno == EINTR || errno == ECONNABORTED) continue;
    CDSFLOW_EXPECT(errno == EMFILE || errno == ENFILE,
                   std::string("accept failed: ") + std::strerror(errno));
    // Out of descriptors: the pending connection keeps the listener
    // readable, so leaving it queued would spin the loop. Spend the
    // reserve to accept and refuse it, then take the reserve back.
    if (reserve_fd_ < 0) return;
    ::close(reserve_fd_);
    const int refused = ::accept(listen_fd_, nullptr, nullptr);
    if (refused >= 0) ::close(refused);
    reserve_fd_ = open_reserve_fd();
    if (refused < 0) return;
  }
}

bool Server::read_ready(ServerHandler& handler, int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return false;
  std::uint8_t chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      Connection& conn = it->second;
      if (!conn.reader.feed(chunk, static_cast<std::size_t>(n))) {
        handler.on_malformed(*this, fd, conn.reader.error());
        conn.closing = true;
        return true;  // flushed + closed by the caller's POLLOUT handling
      }
      // Hand over every frame completed by this chunk. The handler may
      // send() or close_connection(), both loop-thread-safe here.
      while (auto frame = conn.reader.next()) {
        handler.on_frame(*this, fd, std::move(*frame));
        it = connections_.find(fd);
        if (it == connections_.end()) return false;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    teardown(handler, fd, true);  // peer closed (n == 0) or hard error
    return false;
  }
}

bool Server::flush(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return false;
  Connection& conn = it->second;
  while (conn.outbound_offset < conn.outbound.size()) {
    const ssize_t n = ::send(fd, conn.outbound.data() + conn.outbound_offset,
                             conn.outbound.size() - conn.outbound_offset,
                             MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbound_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // hard write error: caller tears down
  }
  conn.outbound.clear();
  conn.outbound_offset = 0;
  return true;
}

void Server::teardown(ServerHandler& handler, int fd, bool notify) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  ::close(fd);
  connections_.erase(it);
  if (notify) handler.on_disconnect(fd);
}

void Server::run(ServerHandler& handler) {
  std::vector<pollfd> fds;
  std::vector<int> dead;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({waker_->read_fd(), POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& [fd, conn] : connections_) {
      short events = POLLIN;
      if (conn.outbound_offset < conn.outbound.size() || conn.closing) {
        events |= POLLOUT;
      }
      fds.push_back({fd, events, 0});
    }
    // No timeout: only I/O or a wake (stop() included) ends the wait.
    const int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      CDSFLOW_EXPECT(errno == EINTR,
                     std::string("poll failed: ") + std::strerror(errno));
      continue;
    }

    // Drain before on_tick(): a wake written after this drain stays
    // pending and ends the next poll(), so none is lost.
    if ((fds[0].revents & POLLIN) != 0) waker_->drain();
    if ((fds[1].revents & POLLIN) != 0) accept_ready();

    for (std::size_t i = 2; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      const short revents = fds[i].revents;
      if (revents == 0) continue;
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        teardown(handler, fd, true);
        continue;
      }
      if ((revents & POLLIN) != 0 && !read_ready(handler, fd)) continue;
      if ((revents & (POLLOUT | POLLHUP)) != 0 && !flush(fd)) {
        teardown(handler, fd, true);
        continue;
      }
      if ((revents & POLLHUP) != 0 && connections_.count(fd) != 0 &&
          connections_[fd].outbound.empty()) {
        teardown(handler, fd, true);
      }
    }

    // Close-after-flush connections: one immediate flush attempt so
    // reject-then-close does not wait a poll round-trip, then tear down
    // once (or because) the buffer is done.
    dead.clear();
    for (auto& [fd, conn] : connections_) {
      if (!conn.closing) continue;
      if (!flush(fd) || conn.outbound.empty()) dead.push_back(fd);
    }
    for (const int fd : dead) teardown(handler, fd, true);

    handler.on_tick(*this);
  }
}

}  // namespace cdsflow::net
