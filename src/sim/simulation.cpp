#include "sim/simulation.hpp"

#include <bit>
#include <sstream>

namespace cdsflow::sim {

namespace {

void set_bit(std::vector<std::uint64_t>& bits, std::size_t i) {
  bits[i / 64] |= std::uint64_t{1} << (i % 64);
}

bool any_bit(const std::vector<std::uint64_t>& bits) {
  for (const std::uint64_t w : bits) {
    if (w != 0) return true;
  }
  return false;
}

/// Lowest set bit at or after `from`, clearing it; `limit` when none.
std::size_t take_next_bit(std::vector<std::uint64_t>& bits, std::size_t from,
                          std::size_t limit) {
  for (std::size_t w = from / 64; w < bits.size(); ++w) {
    std::uint64_t word = bits[w];
    if (w == from / 64) word &= ~std::uint64_t{0} << (from % 64);
    if (word != 0) {
      const std::size_t b = static_cast<std::size_t>(std::countr_zero(word));
      bits[w] &= ~(std::uint64_t{1} << b);
      return w * 64 + b;
    }
  }
  return limit;
}

}  // namespace

void Process::wake() {
  if (sim_ != nullptr) sim_->wake(index_);
}

Process& Simulation::add(std::unique_ptr<Process> p) {
  CDSFLOW_EXPECT(p != nullptr, "add() requires a process");
  p->sim_ = this;
  p->index_ = processes_.size();
  processes_.push_back(std::move(p));
  return *processes_.back();
}

void Simulation::wake(std::size_t index) {
  if (!running_) return;
  set_bit(stepping_ != kIdle && index <= stepping_ ? deferred_ : ready_,
          index);
}

void Simulation::expect_endpoint(const Process* declared,
                                 const ChannelBase& channel,
                                 const char* verb) const {
  if (stepping_ == kIdle) return;  // set-up or inspection, not a step
  const Process* actor = processes_[stepping_].get();
  CDSFLOW_EXPECT(actor == declared,
                 "process '" + actor->name() + "' " + verb + " channel '" +
                     channel.name() +
                     "' without declaring it (bind_reader/bind_writer in "
                     "its constructor); the scheduler would not wake the "
                     "other end");
}

SimResult Simulation::run(Cycle max_cycles) {
  CDSFLOW_EXPECT(!processes_.empty(), "run() requires at least one process");
  SimResult result;
  now_ = 0;

  const std::size_t n = processes_.size();
  const std::size_t words = (n + 63) / 64;
  ready_.assign(words, 0);
  deferred_.assign(words, 0);
  stepped_.assign(words, 0);
  finished_.assign(n, 0);
  version_.assign(n, 0);
  timers_ = {};

  // Every live process gets one step at cycle 0.
  std::size_t live = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (processes_[i]->done()) {
      finished_[i] = 1;
    } else {
      ++live;
      set_bit(ready_, i);
    }
  }

  struct RunningScope {
    Simulation& sim;
    explicit RunningScope(Simulation& s) : sim(s) { sim.running_ = true; }
    ~RunningScope() {
      sim.running_ = false;
      sim.stepping_ = kIdle;
    }
  } scope(*this);

  const std::uint64_t settle_limit = 16 + 4 * n;
  while (true) {
    // --- settle the current cycle: step the woken processes ---------------
    // A correct process only reports progress when state actually changed,
    // so this loop terminates; the guard catches contract violations
    // (a process that claims progress forever would otherwise hang us).
    bool cycle_was_active = false;
    std::uint64_t settle_rounds = 0;
    while (any_bit(ready_)) {
      bool progressed = false;
      for (std::size_t i = take_next_bit(ready_, 0, n); i < n;
           i = take_next_bit(ready_, i + 1, n)) {
        if (finished_[i]) continue;
        Process& p = *processes_[i];
        set_bit(stepped_, i);
        ++result.total_steps;
        stepping_ = i;
        const bool moved = p.step(now_);
        stepping_ = kIdle;
        if (!moved) continue;
        progressed = true;
        if (p.done()) {
          finished_[i] = 1;
          --live;
        } else {
          set_bit(deferred_, i);
        }
      }
      cycle_was_active |= progressed;
      ready_.swap(deferred_);
      CDSFLOW_ASSERT(++settle_rounds <= settle_limit,
                     "settle loop did not converge at cycle " +
                         std::to_string(now_) +
                         " -- a process reports progress without state "
                         "change");
    }
    if (cycle_was_active) ++result.active_cycles;

    // --- completion check ------------------------------------------------
    if (live == 0) {
      result.end_cycle = now_;
      return result;
    }

    // --- re-arm the timers of the processes stepped this cycle -----------
    for (std::size_t i = take_next_bit(stepped_, 0, n); i < n;
         i = take_next_bit(stepped_, i + 1, n)) {
      ++version_[i];
      if (finished_[i]) continue;
      const Cycle wake = processes_[i]->next_wake(now_);
      if (wake == kNoWake) continue;
      CDSFLOW_ASSERT(wake > now_,
                     "next_wake must be strictly in the future (process "
                     "returned cycle " +
                         std::to_string(wake) + " at " +
                         std::to_string(now_) + ")");
      timers_.push({wake, i, version_[i]});
    }

    // --- advance time to the earliest pending timer ------------------------
    auto stale = [this](const Timer& t) {
      return version_[t.index] != t.version;
    };
    while (!timers_.empty() && stale(timers_.top())) timers_.pop();
    if (timers_.empty()) report_deadlock();
    const Cycle next = timers_.top().wake;
    CDSFLOW_EXPECT(next <= max_cycles,
                   "simulation exceeded max_cycles=" +
                       std::to_string(max_cycles));
    now_ = next;
    while (!timers_.empty() && timers_.top().wake == next) {
      if (!stale(timers_.top())) set_bit(ready_, timers_.top().index);
      timers_.pop();
    }
  }
}

void Simulation::report_deadlock() const {
  std::ostringstream os;
  os << "dataflow deadlock at cycle " << now_
     << ": no process can make progress and none has a pending timer.\n"
     << "Processes:\n";
  for (const auto& p : processes_) {
    if (p->done()) continue;
    os << "  [" << p->name() << "] " << p->describe_state() << '\n';
  }
  os << "Channels:\n";
  for (const auto& c : channels_) {
    os << "  [" << c->name() << "] " << c->size() << '/' << c->capacity()
       << (c->full() ? " FULL" : (c->empty() ? " EMPTY" : "")) << '\n';
  }
  throw Error(os.str());
}

}  // namespace cdsflow::sim
