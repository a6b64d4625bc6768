/// \file test_sim_scheduler.cpp
/// Unit tests for the Simulation scheduler: quiescence settling, event-
/// driven time advance, completion, deadlock detection and diagnostics,
/// contract enforcement.

#include <gtest/gtest.h>

#include "sim/simulation.hpp"

namespace cdsflow::sim {
namespace {

/// Produces `count` integers, one every `period` cycles.
class TickSource final : public Process {
 public:
  TickSource(std::string name, Channel<int>& out, int count, Cycle period)
      : Process(std::move(name)), out_(out), count_(count), period_(period) {
    out_.bind_writer(*this);
  }

  bool step(Cycle now) override {
    if (emitted_ >= count_ || now < next_ || !out_.can_push()) return false;
    out_.push(emitted_++);
    next_ = now + period_;
    return true;
  }
  Cycle next_wake(Cycle now) const override {
    if (emitted_ >= count_) return kNoWake;
    return next_ > now ? next_ : kNoWake;
  }
  bool done() const override { return emitted_ >= count_; }

 private:
  Channel<int>& out_;
  int count_;
  Cycle period_;
  int emitted_ = 0;
  Cycle next_ = 0;
};

/// Consumes `count` integers immediately when available.
class Drain final : public Process {
 public:
  Drain(std::string name, Channel<int>& in, int count)
      : Process(std::move(name)), in_(in), count_(count) {
    in_.bind_reader(*this);
  }

  bool step(Cycle) override {
    if (received_ >= count_ || !in_.can_pop()) return false;
    last_ = in_.pop();
    ++received_;
    return true;
  }
  Cycle next_wake(Cycle) const override { return kNoWake; }
  bool done() const override { return received_ >= count_; }
  int last() const { return last_; }
  int received() const { return received_; }

 private:
  Channel<int>& in_;
  int count_;
  int received_ = 0;
  int last_ = -1;
};

/// Never makes progress; never done -- the deadlock fixture.
class Stuck final : public Process {
 public:
  explicit Stuck(std::string name) : Process(std::move(name)) {}
  bool step(Cycle) override { return false; }
  Cycle next_wake(Cycle) const override { return kNoWake; }
  bool done() const override { return false; }
  std::string describe_state() const override { return "hopelessly stuck"; }
};

/// Violates the contract: claims progress forever.
class Liar final : public Process {
 public:
  explicit Liar(std::string name) : Process(std::move(name)) {}
  bool step(Cycle) override { return true; }
  Cycle next_wake(Cycle) const override { return kNoWake; }
  bool done() const override { return false; }
};

TEST(Simulation, RunsSourceToDrain) {
  Simulation sim;
  auto& ch = sim.make_channel<int>("ch", 2);
  sim.add_process<TickSource>("src", ch, 10, 3);
  auto& drain = sim.add_process<Drain>("drain", ch, 10);
  const auto result = sim.run();
  EXPECT_EQ(drain.received(), 10);
  EXPECT_EQ(drain.last(), 9);
  // 10 tokens, one every 3 cycles starting at 0 => last emitted at 27.
  EXPECT_EQ(result.end_cycle, 27u);
}

TEST(Simulation, EventDrivenSkipsIdleCycles) {
  Simulation sim;
  auto& ch = sim.make_channel<int>("ch", 2);
  sim.add_process<TickSource>("src", ch, 4, 1000);
  sim.add_process<Drain>("drain", ch, 4);
  const auto result = sim.run();
  EXPECT_EQ(result.end_cycle, 3000u);
  // Only the emission cycles are active, not the 3000 in between.
  EXPECT_LE(result.active_cycles, 8u);
}

TEST(Simulation, BackpressureThrottlesProducer) {
  Simulation sim;
  auto& ch = sim.make_channel<int>("ch", 1);
  // Source wants to emit every cycle; drain accepts all 5 immediately, so
  // the depth-1 channel never stalls long -- but with a stuck consumer the
  // source must stop after filling the FIFO (covered by DeadlockDetected).
  sim.add_process<TickSource>("src", ch, 5, 1);
  auto& drain = sim.add_process<Drain>("drain", ch, 5);
  sim.run();
  EXPECT_EQ(drain.received(), 5);
}

TEST(Simulation, DeadlockDetectedAndDescribed) {
  Simulation sim;
  auto& ch = sim.make_channel<int>("full_channel", 1);
  sim.add_process<TickSource>("src", ch, 5, 1);
  sim.add_process<Stuck>("consumer");
  try {
    sim.run();
    FAIL() << "expected deadlock";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos);
    EXPECT_NE(what.find("hopelessly stuck"), std::string::npos);
    EXPECT_NE(what.find("full_channel"), std::string::npos);
    EXPECT_NE(what.find("FULL"), std::string::npos);
  }
}

TEST(Simulation, SettleGuardCatchesLyingProcess) {
  Simulation sim;
  sim.add_process<Liar>("liar");
  EXPECT_THROW(sim.run(), Error);
}

TEST(Simulation, MaxCyclesEnforced) {
  Simulation sim;
  auto& ch = sim.make_channel<int>("ch", 2);
  sim.add_process<TickSource>("src", ch, 100, 1000);
  sim.add_process<Drain>("drain", ch, 100);
  EXPECT_THROW(sim.run(/*max_cycles=*/500), Error);
}

TEST(Simulation, RequiresProcesses) {
  Simulation sim;
  EXPECT_THROW(sim.run(), Error);
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto build_and_run = [] {
    Simulation sim;
    auto& a = sim.make_channel<int>("a", 2);
    auto& b = sim.make_channel<int>("b", 3);
    sim.add_process<TickSource>("s1", a, 20, 2);
    sim.add_process<TickSource>("s2", b, 20, 3);
    sim.add_process<Drain>("d1", a, 20);
    sim.add_process<Drain>("d2", b, 20);
    return sim.run().end_cycle;
  };
  EXPECT_EQ(build_and_run(), build_and_run());
}

TEST(Simulation, ChannelOwnershipAndIntrospection) {
  Simulation sim;
  sim.make_channel<int>("x", 2);
  sim.make_channel<double>("y", 4);
  EXPECT_EQ(sim.channel_count(), 2u);
  EXPECT_EQ(sim.channels()[0]->name(), "x");
  EXPECT_EQ(sim.channels()[1]->capacity(), 4u);
}

TEST(Simulation, DescribeStateSurfacesProgressCounters) {
  // Deadlock diagnostics depend on describe_state() carrying useful
  // information; check the stage implementations report token progress and
  // blocking channels.
  Simulation sim;
  auto& ch = sim.make_channel<int>("narrow", 1);
  sim.add_process<TickSource>("src", ch, 3, 1);
  sim.add_process<Stuck>("black_hole");
  try {
    sim.run();
    FAIL() << "expected deadlock";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("black_hole"), std::string::npos);
    EXPECT_NE(what.find("narrow"), std::string::npos);
    EXPECT_NE(what.find("1/1"), std::string::npos);  // channel occupancy
  }
}

TEST(Simulation, SameCycleHandoffWorksRegardlessOfOrder) {
  // Drain registered before source: settle loop must still deliver the
  // token within the same cycle.
  Simulation sim;
  auto& ch = sim.make_channel<int>("ch", 2);
  auto& drain = sim.add_process<Drain>("drain", ch, 1);
  sim.add_process<TickSource>("src", ch, 1, 1);
  const auto result = sim.run();
  EXPECT_EQ(result.end_cycle, 0u);
  EXPECT_EQ(drain.received(), 1);
}

}  // namespace
}  // namespace cdsflow::sim
