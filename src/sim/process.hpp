/// \file process.hpp
/// The unit of concurrency in the simulator.
///
/// A Process models one concurrently executing hardware entity (an HLS
/// dataflow function, a memory port, a scheduler...). The Simulation drives
/// processes with a cooperative step/next_wake protocol and steps a process
/// only when something can have changed for it:
///
///  * step(now)      — attempt to make progress at cycle `now`. Must return
///                     true iff observable state changed (a token moved, an
///                     internal phase advanced). A process that progressed
///                     is stepped again in the same cycle, so multi-step
///                     progress within a cycle works.
///  * next_wake(now) — the earliest cycle strictly after `now` at which the
///                     process could make progress *on its own* (e.g. a
///                     pipeline result completing). Return kNoWake when only
///                     channel activity from another process can unblock it;
///                     if every live process says kNoWake the system is
///                     deadlocked and the scheduler reports it. The value
///                     must depend only on the process's own state and the
///                     channels it declared, and every self-driven condition
///                     must have the form `X > now` -- the scheduler caches
///                     the answer until that cycle or until a declared
///                     channel moves.
///  * done()         — the process has finished all the work it will ever do.
///
/// Declared endpoints: a process must declare, in its constructor, every
/// channel it pops (Channel::bind_reader) and every channel it pushes
/// (Channel::bind_writer). A push wakes the channel's reader and a pop wakes
/// its writer; that is the only way a blocked process learns it can move.
/// Moving a token through a simulation-owned channel without declaring it is
/// an error (Simulation::run throws), never a silently late wake-up.

#pragma once

#include <cstddef>
#include <string>

#include "sim/cycle.hpp"

namespace cdsflow::sim {

class Simulation;

class Process {
 public:
  explicit Process(std::string name) : name_(std::move(name)) {}
  virtual ~Process() = default;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  const std::string& name() const { return name_; }

  /// Attempt progress at `now`; true iff state changed. See file comment.
  virtual bool step(Cycle now) = 0;

  /// Earliest self-driven wake-up after `now`; kNoWake if channel-bound/done.
  virtual Cycle next_wake(Cycle now) const = 0;

  /// All work complete.
  virtual bool done() const = 0;

  /// One-line state description for deadlock diagnostics; overriders should
  /// mention which channel they are blocked on.
  virtual std::string describe_state() const { return done() ? "done" : "running"; }

  /// Queues this process to be stepped in the current cycle of its
  /// Simulation's run (channels call it on push/pop). A no-op before the
  /// process joins a Simulation and outside Simulation::run.
  void wake();

 private:
  friend class Simulation;

  std::string name_;
  Simulation* sim_ = nullptr;
  std::size_t index_ = 0;  ///< registration order within sim_
};

}  // namespace cdsflow::sim
