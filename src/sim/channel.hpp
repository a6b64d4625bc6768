/// \file channel.hpp
/// Bounded FIFO channels connecting simulator processes.
///
/// A Channel models the physical FIFO an HLS stream synthesises to: fixed
/// capacity, blocking semantics (a producer that finds the FIFO full must
/// stall; a consumer that finds it empty must stall), strict FIFO order.
///
/// Like an hls::stream, a channel is single-producer single-consumer: the
/// process that pops it declares itself with bind_reader, the one that
/// pushes it with bind_writer (in their constructors), and a second reader
/// or writer is an error. The endpoints are how the scheduler stays
/// event-driven: a push wakes the reader and a pop wakes the writer, so a
/// blocked process is stepped again exactly when its FIFO moves. A channel
/// made by Simulation::make_channel also checks, while the simulation runs,
/// that every push and pop comes from the declared endpoint.
///
/// Channels also accumulate the statistics the benches report: stall counts,
/// high-water mark, and total traffic. A stall is recorded each time a
/// *woken* process tries and fails to push or pop, so the counts measure
/// blocked attempts by processes the scheduler stepped, not cycles spent
/// blocked; SimResult::total_steps counts the same woken steps.

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace cdsflow::sim {

class Process;
class Simulation;

/// Type-erased channel interface: what the scheduler and the deadlock
/// reporter need without knowing the token type.
class ChannelBase {
 public:
  ChannelBase(std::string name, std::size_t capacity);
  virtual ~ChannelBase() = default;

  ChannelBase(const ChannelBase&) = delete;
  ChannelBase& operator=(const ChannelBase&) = delete;

  const std::string& name() const { return name_; }
  std::size_t capacity() const { return capacity_; }
  virtual std::size_t size() const = 0;

  bool full() const { return size() >= capacity_; }
  bool empty() const { return size() == 0; }

  // --- endpoints --------------------------------------------------------
  /// Declares `p` the consumer (the process woken by each push). Binding a
  /// second, different reader throws.
  void bind_reader(Process& p);
  /// Declares `p` the producer (the process woken by each pop). Binding a
  /// second, different writer throws.
  void bind_writer(Process& p);

  // --- statistics -------------------------------------------------------
  std::uint64_t total_pushed() const { return total_pushed_; }
  std::uint64_t push_stalls() const { return push_stalls_; }
  std::uint64_t pop_stalls() const { return pop_stalls_; }
  std::size_t max_occupancy() const { return max_occupancy_; }

  /// Stages call these when they *wanted* to push/pop but could not; the
  /// counters feed the stream-depth ablation bench.
  void record_push_stall() { ++push_stalls_; }
  void record_pop_stall() { ++pop_stalls_; }

 protected:
  /// Bookkeeping after a push that left `occupancy` tokens: statistics,
  /// the endpoint check, and waking the reader.
  void note_push(std::size_t occupancy);
  /// After a pop: the endpoint check and waking the writer.
  void note_pop();

 private:
  friend class Simulation;

  std::string name_;
  std::size_t capacity_;
  Process* reader_ = nullptr;
  Process* writer_ = nullptr;
  /// The simulation that owns this channel (make_channel), else null.
  const Simulation* owner_ = nullptr;
  std::uint64_t total_pushed_ = 0;
  std::uint64_t push_stalls_ = 0;
  std::uint64_t pop_stalls_ = 0;
  std::size_t max_occupancy_ = 0;
};

/// Typed bounded FIFO. Capacity 2 mirrors the default depth Vitis HLS gives
/// an hls::stream; engines size critical streams explicitly.
template <typename T>
class Channel final : public ChannelBase {
 public:
  Channel(std::string name, std::size_t capacity)
      : ChannelBase(std::move(name), capacity) {
    CDSFLOW_EXPECT(capacity > 0, "channel capacity must be >= 1");
  }

  std::size_t size() const override { return buf_.size(); }

  bool can_push() const { return buf_.size() < capacity(); }
  bool can_pop() const { return !buf_.empty(); }

  void push(T value) {
    CDSFLOW_ASSERT(can_push(), "push() on full channel '" + name() + "'");
    buf_.push_back(std::move(value));
    note_push(buf_.size());
  }

  /// Peek without consuming (HLS streams expose the same).
  const T& front() const {
    CDSFLOW_ASSERT(can_pop(), "front() on empty channel '" + name() + "'");
    return buf_.front();
  }

  T pop() {
    CDSFLOW_ASSERT(can_pop(), "pop() on empty channel '" + name() + "'");
    T v = std::move(buf_.front());
    buf_.pop_front();
    note_pop();
    return v;
  }

 private:
  std::deque<T> buf_;
};

}  // namespace cdsflow::sim
