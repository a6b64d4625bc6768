/// \file replicate.hpp
/// Round-robin replication of an expensive dataflow sub-function
/// (the paper's Fig. 3 "vectorisation").
///
/// A ReplicatedPool wires:
///
///     in ──> Distributor ──> lane[0..N-1] (replica kernels) ──> Collector ──> out
///
/// The distributor hands tokens to lanes cyclically and the collector reads
/// results back in the same cyclic order, so output ordering is preserved
/// exactly as the paper describes ("by working cyclically ordering of result
/// consumption is maintained").
///
/// The distributor is also where the physical feed limit lives: the paper
/// stores the replicated hazard/interest-rate constant data in *dual-ported
/// URAM*, so however many replica functions exist, the scheduler can stream
/// at most `feed_elements_per_cycle` curve elements per cycle into the pool.
/// Each token carries a data requirement (`feed_elements(token)`); the
/// distributor is occupied for that many cycles / feed rate before it can
/// hand out the next token. This reproduces the paper's observation that
/// replicating six times "doubled performance": the 1024-element scans are
/// feed-limited at 2 elements/cycle, not compute-limited.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "hls/stage.hpp"
#include "hls/stream.hpp"
#include "sim/simulation.hpp"

namespace cdsflow::hls {

/// Distributes tokens round-robin across lane streams; occupied per token by
/// the feed cost (data streaming from shared URAM ports).
template <typename T>
class DistributorStage final : public StageBase {
 public:
  DistributorStage(std::string name, Channel<T>& in,
                   std::vector<Channel<T>*> lanes, StageTiming timing,
                   std::uint64_t expected, sim::Trace* trace = nullptr,
                   std::function<Cycle(const T&)> feed_cost = nullptr)
      : StageBase(std::move(name), timing, expected, trace),
        in_(in),
        lanes_(std::move(lanes)),
        feed_cost_(std::move(feed_cost)) {
    CDSFLOW_EXPECT(!lanes_.empty(), "DistributorStage requires lanes");
    in_.bind_reader(*this);
    for (auto* l : lanes_) {
      CDSFLOW_EXPECT(l != nullptr, "DistributorStage lane is null");
      l->bind_writer(*this);
    }
  }

  bool step(Cycle now) override {
    if (processed_ >= expected_ || now < next_issue_) return false;
    if (!in_.can_pop()) {
      in_.record_pop_stall();
      return false;
    }
    Channel<T>& lane = *lanes_[rr_];
    if (!lane.can_push()) {
      lane.record_push_stall();
      return false;  // strict round-robin: waits for *this* lane
    }
    const T token = in_.pop();
    const Cycle occupied =
        std::max<Cycle>(feed_cost_ ? feed_cost_(token) : timing_.ii, 1);
    lane.push(token);
    rr_ = (rr_ + 1) % lanes_.size();
    note_issue(now, occupied);
    next_issue_ = now + occupied;
    return true;
  }

  Cycle next_wake(Cycle now) const override {
    if (processed_ >= expected_) return kNoWake;
    if (next_issue_ > now && in_.can_pop() && lanes_[rr_]->can_push()) {
      return next_issue_;
    }
    return kNoWake;
  }

  bool done() const override { return processed_ >= expected_; }

  std::string describe_state() const override {
    return "dispatched " + std::to_string(processed_) + "/" +
           std::to_string(expected_) + ", next lane " + std::to_string(rr_);
  }

 private:
  Channel<T>& in_;
  std::vector<Channel<T>*> lanes_;
  std::function<Cycle(const T&)> feed_cost_;
  std::size_t rr_ = 0;
  Cycle next_issue_ = 0;
};

/// Reads lane results back in cyclic order and forwards them on a single
/// stream, preserving the original token order.
template <typename T>
class CollectorStage final : public StageBase {
 public:
  CollectorStage(std::string name, std::vector<Channel<T>*> lanes,
                 Channel<T>& out, StageTiming timing, std::uint64_t expected,
                 sim::Trace* trace = nullptr)
      : StageBase(std::move(name), timing, expected, trace),
        lanes_(std::move(lanes)),
        out_(out) {
    CDSFLOW_EXPECT(!lanes_.empty(), "CollectorStage requires lanes");
    for (auto* l : lanes_) {
      CDSFLOW_EXPECT(l != nullptr, "CollectorStage lane is null");
      l->bind_reader(*this);
    }
    out_.bind_writer(*this);
  }

  bool step(Cycle now) override {
    if (processed_ >= expected_ || now < next_issue_) return false;
    Channel<T>& lane = *lanes_[rr_];
    if (!lane.can_pop()) {
      lane.record_pop_stall();
      return false;  // in-order: waits for *this* lane's result
    }
    if (!out_.can_push()) {
      out_.record_push_stall();
      return false;
    }
    out_.push(lane.pop());
    rr_ = (rr_ + 1) % lanes_.size();
    const Cycle occupied = std::max<Cycle>(timing_.ii, 1);
    note_issue(now, occupied);
    next_issue_ = now + occupied;
    return true;
  }

  Cycle next_wake(Cycle now) const override {
    if (processed_ >= expected_) return kNoWake;
    if (next_issue_ > now && lanes_[rr_]->can_pop() && out_.can_push()) {
      return next_issue_;
    }
    return kNoWake;
  }

  bool done() const override { return processed_ >= expected_; }

  std::string describe_state() const override {
    return "collected " + std::to_string(processed_) + "/" +
           std::to_string(expected_) + ", next lane " + std::to_string(rr_);
  }

 private:
  std::vector<Channel<T>*> lanes_;
  Channel<T>& out_;
  std::size_t rr_ = 0;
  Cycle next_issue_ = 0;
};

/// Configuration for a replicated sub-function pool.
struct ReplicationConfig {
  /// Number of replica functions (the paper uses 6).
  std::size_t lanes = 6;
  /// Aggregate curve elements the distributor can stream per cycle
  /// (dual-ported URAM => 2).
  double feed_elements_per_cycle = 2.0;
  /// Depth of the per-lane streams.
  std::size_t lane_stream_depth = kDefaultStreamDepth;
};

/// Handles to the stages a ReplicatedPool instantiates (for tests/benches:
/// lane utilisation, busy cycles).
template <typename In, typename Out>
struct ReplicatedPoolHandles {
  DistributorStage<In>* distributor = nullptr;
  std::vector<MapStage<In, Out>*> lanes;
  CollectorStage<Out>* collector = nullptr;
};

/// Builds the distributor + N replica MapStages + collector inside `sim`,
/// between `in` and `out`. `make_kernel(lane)` returns the replica kernel
/// (each replica owns its own state), `work` its per-token occupancy, and
/// `feed_elements` the number of constant-data elements the distributor must
/// stream for a token.
template <typename In, typename Out>
ReplicatedPoolHandles<In, Out> make_replicated_pool(
    sim::Simulation& sim, const std::string& name, Channel<In>& in,
    Channel<Out>& out, const ReplicationConfig& cfg,
    std::function<std::function<Out(const In&)>(std::size_t)> make_kernel,
    std::function<Cycle(const In&)> work,
    std::function<double(const In&)> feed_elements, StageTiming lane_timing,
    std::uint64_t expected_tokens, sim::Trace* trace = nullptr) {
  CDSFLOW_EXPECT(cfg.lanes >= 1, "replication requires >= 1 lane");
  CDSFLOW_EXPECT(cfg.feed_elements_per_cycle > 0.0,
                 "feed rate must be positive");

  ReplicatedPoolHandles<In, Out> handles;
  std::vector<Channel<In>*> lane_in(cfg.lanes);
  std::vector<Channel<Out>*> lane_out(cfg.lanes);
  for (std::size_t l = 0; l < cfg.lanes; ++l) {
    lane_in[l] = &make_stream<In>(sim, name + ".lane" + std::to_string(l) + ".in",
                                  cfg.lane_stream_depth);
    lane_out[l] = &make_stream<Out>(
        sim, name + ".lane" + std::to_string(l) + ".out", cfg.lane_stream_depth);
  }

  // Token i goes to lane i % N; compute each lane's exact share.
  std::vector<std::uint64_t> lane_share(cfg.lanes,
                                        expected_tokens / cfg.lanes);
  for (std::size_t l = 0; l < expected_tokens % cfg.lanes; ++l) {
    ++lane_share[l];
  }

  const double feed_rate = cfg.feed_elements_per_cycle;
  std::function<Cycle(const In&)> feed_cost = nullptr;
  if (feed_elements) {
    feed_cost = [feed_elements, feed_rate](const In& t) -> Cycle {
      const double elems = feed_elements(t);
      return static_cast<Cycle>(elems / feed_rate + 0.999999);
    };
  }

  handles.distributor = &sim.add_process<DistributorStage<In>>(
      name + ".sched", in, lane_in, StageTiming{.latency = 1, .ii = 1},
      expected_tokens, trace, std::move(feed_cost));

  for (std::size_t l = 0; l < cfg.lanes; ++l) {
    handles.lanes.push_back(&sim.add_process<MapStage<In, Out>>(
        name + ".rep" + std::to_string(l), *lane_in[l], *lane_out[l],
        make_kernel(l), lane_timing, lane_share[l], trace, work));
  }

  handles.collector = &sim.add_process<CollectorStage<Out>>(
      name + ".collect", lane_out, out, StageTiming{.latency = 1, .ii = 1},
      expected_tokens, trace);

  return handles;
}

}  // namespace cdsflow::hls
