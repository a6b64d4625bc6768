/// \file simulation.hpp
/// The cycle-level scheduler.
///
/// The Simulation owns processes and channels and advances a single global
/// clock. Its host cost grows with the number of events (tokens moved,
/// timers fired), not with processes x cycles:
///
///  * Wake list. A process is stepped only when something can have changed
///    for it: a push to a channel it reads, a pop from a channel it writes
///    (see the declared endpoints in process.hpp / channel.hpp), its own
///    timer firing, or its own progress in the same cycle. At cycle 0 every
///    process is stepped once.
///  * Settling a cycle. Queued processes are stepped in registration order.
///    A wake aimed at a process later in the order joins the current pass;
///    one aimed at an earlier process (or a process that progressed) joins
///    the next pass. The sequence of successful steps is therefore the one a
///    loop stepping every process in order, pass after pass until nothing
///    moves, would produce -- processes that were not woken would not have
///    moved. A guard bounds the number of passes per cycle.
///  * Timers. After a cycle settles, next_wake(now) is re-evaluated for the
///    processes stepped in it and pushed into a min-heap keyed by (cycle,
///    registration index); a per-process version lazily invalidates the
///    older entry. A process that was neither stepped nor had a declared
///    channel move keeps its state, and every next_wake condition has the
///    form `X > now`, so its cached wake stays valid until it fires.
///  * Time advance. The clock jumps to the heap top and wakes every process
///    due then. Long pipeline occupancies (a 1024-element scan, a 60 us
///    kernel restart) cost O(log processes) scheduler work. When no timer is
///    pending and processes remain live, the run throws a deadlock report.
///
/// Determinism: processes are stepped in registration order and all
/// randomness lives in workloads, so a given engine + portfolio always
/// produces bit-identical results and cycle counts (asserted by tests).
/// Processes hold a back-pointer to their Simulation, so it is neither
/// copyable nor movable.

#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "sim/channel.hpp"
#include "sim/cycle.hpp"
#include "sim/process.hpp"

namespace cdsflow::sim {

/// Outcome of a Simulation::run call.
struct SimResult {
  /// Clock value when the last process finished.
  Cycle end_cycle = 0;
  /// Total step() invocations of woken processes (scheduler effort; useful
  /// for sim perf work).
  std::uint64_t total_steps = 0;
  /// Number of distinct cycles at which any progress happened.
  std::uint64_t active_cycles = 0;
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  Simulation(Simulation&&) = delete;
  Simulation& operator=(Simulation&&) = delete;

  /// Registers a process; the simulation takes ownership. Returns a
  /// reference for wiring convenience.
  template <typename P, typename... Args>
  P& add_process(Args&&... args) {
    static_assert(std::is_base_of_v<Process, P>);
    auto p = std::make_unique<P>(std::forward<Args>(args)...);
    P& ref = *p;
    add(std::move(p));
    return ref;
  }

  /// Registers an externally constructed process.
  Process& add(std::unique_ptr<Process> p);

  /// Creates a channel owned by the simulation.
  template <typename T>
  Channel<T>& make_channel(std::string name, std::size_t capacity) {
    auto c = std::make_unique<Channel<T>>(std::move(name), capacity);
    c->owner_ = this;
    Channel<T>& ref = *c;
    channels_.push_back(std::move(c));
    return ref;
  }

  /// Runs until every process is done. Throws cdsflow::Error on deadlock
  /// (with a full dump of process and channel state), when `max_cycles`
  /// is exceeded, or when a process moves a token through a channel it did
  /// not declare.
  SimResult run(Cycle max_cycles = kNoWake - 1);

  std::size_t process_count() const { return processes_.size(); }
  std::size_t channel_count() const { return channels_.size(); }
  const std::vector<std::unique_ptr<ChannelBase>>& channels() const {
    return channels_;
  }
  const std::vector<std::unique_ptr<Process>>& processes() const {
    return processes_;
  }

  /// Current clock (valid during and after run()).
  Cycle now() const { return now_; }

 private:
  friend class Process;
  friend class ChannelBase;

  static constexpr std::size_t kIdle = static_cast<std::size_t>(-1);

  /// A pending self-timer: process `index` wants a step at `wake`; stale
  /// unless `version` is still the process's current one.
  struct Timer {
    Cycle wake;
    std::size_t index;
    std::uint64_t version;
    bool operator>(const Timer& o) const {
      return wake != o.wake ? wake > o.wake : index > o.index;
    }
  };

  /// Queues process `index` for this pass (if it comes after the process
  /// being stepped) or the next one.
  void wake(std::size_t index);

  /// Throws unless the process being stepped (if any) is `declared`, the
  /// endpoint that `channel` names for the operation.
  void expect_endpoint(const Process* declared, const ChannelBase& channel,
                       const char* verb) const;

  [[noreturn]] void report_deadlock() const;

  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::unique_ptr<ChannelBase>> channels_;
  Cycle now_ = 0;

  // --- run() state -------------------------------------------------------
  bool running_ = false;
  std::size_t stepping_ = kIdle;     ///< index being stepped, else kIdle
  std::vector<std::uint64_t> ready_;     ///< bitset: queued for this pass
  std::vector<std::uint64_t> deferred_;  ///< bitset: queued for next pass
  std::vector<std::uint64_t> stepped_;   ///< bitset: stepped this cycle
  std::vector<char> finished_;           ///< done() seen true
  std::vector<std::uint64_t> version_;   ///< timer version per process
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
};

}  // namespace cdsflow::sim
