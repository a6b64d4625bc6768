/// \file stage.hpp
/// Pipelined dataflow stage primitives.
///
/// Each stage models one HLS dataflow function: a loop (or loop nest) that
/// consumes tokens from input streams, is *occupied* for a number of cycles
/// per token, and makes its result visible on the output stream after a
/// pipeline latency. The occupancy per token is the stage's effective
/// initiation interval:
///
///   * a fully pipelined II=1 operation occupies its issue slot for 1 cycle;
///   * the Vitis library's hazard accumulation occupies 7 cycles per element
///     (the carried double-precision add the paper's Listing 1 removes);
///   * an inner scan over `n` curve points occupies `n * inner_ii` cycles --
///     expressed with a dynamic `work` function of the token.
///
/// Results commit to the output stream strictly in order; a full output
/// stream back-pressures the stage exactly as a full FIFO stalls an HLS
/// pipeline. Every stage counts busy cycles and can record its activity in a
/// sim::Trace for the figure benches. Each constructor declares the stage's
/// input streams (bind_reader) and output streams (bind_writer), which is
/// how the scheduler knows whom a push or pop wakes (sim/simulation.hpp).
///
/// The primitives:
///   SourceStage     memory/input side: emits a prepared token sequence
///   SinkStage       collects results
///   MapStage        1 token in -> 1 token out (optionally stateful kernel)
///   ExpandStage     1 token in -> K tokens out (time-point generation)
///   ReduceStage     K tokens in -> 1 token out (per-option accumulators)
///   ZipStage        1 token from each of several inputs -> 1 out
///   BroadcastStage  1 token in -> copy to every output

#pragma once

#include <deque>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/channel.hpp"
#include "sim/process.hpp"
#include "sim/trace.hpp"

namespace cdsflow::hls {

using sim::Channel;
using sim::Cycle;
using sim::kNoWake;

/// Timing parameters shared by the stage templates.
struct StageTiming {
  /// Cycles from issue until the result is visible on the output stream.
  Cycle latency = 1;
  /// Static occupancy per token (effective II) when no dynamic work function
  /// is supplied.
  Cycle ii = 1;
  /// Maximum results in flight (pipeline depth). 0 selects latency/ii + 1.
  std::size_t pipeline_depth = 0;

  std::size_t depth_or_default() const {
    if (pipeline_depth != 0) return pipeline_depth;
    const Cycle d = ii == 0 ? latency : latency / std::max<Cycle>(ii, 1);
    return static_cast<std::size_t>(d) + 1;
  }
};

/// Mixin with the bookkeeping every stage shares: token counting, busy-cycle
/// accounting, optional tracing and stall-note flags.
class StageBase : public sim::Process {
 public:
  StageBase(std::string name, StageTiming timing, std::uint64_t expected_tokens,
            sim::Trace* trace = nullptr)
      : Process(std::move(name)), timing_(timing), expected_(expected_tokens) {
    if (trace != nullptr) {
      trace_ = trace;
      track_ = trace->add_track(this->name());
    }
  }

  std::uint64_t processed_tokens() const { return processed_; }
  std::uint64_t expected_tokens() const { return expected_; }
  Cycle busy_cycles() const { return busy_; }
  const StageTiming& timing() const { return timing_; }

 protected:
  /// Books `occupied` busy cycles starting at `now` (and traces them).
  void note_issue(Cycle now, Cycle occupied) {
    ++processed_;
    busy_ += occupied;
    if (trace_ != nullptr) trace_->record(track_, now, now + occupied);
  }

  StageTiming timing_;
  std::uint64_t expected_ = 0;
  std::uint64_t processed_ = 0;

 private:
  Cycle busy_ = 0;
  sim::Trace* trace_ = nullptr;
  std::size_t track_ = 0;
};

// ---------------------------------------------------------------------------
// SourceStage
// ---------------------------------------------------------------------------

/// Emits a prepared sequence of tokens, paced by `ii` (or a per-token pace
/// function, used by the memory-port models to account for burst widths).
template <typename T>
class SourceStage final : public StageBase {
 public:
  SourceStage(std::string name, Channel<T>& out, std::vector<T> tokens,
              StageTiming timing, sim::Trace* trace = nullptr,
              std::function<Cycle(const T&)> pace = nullptr)
      : StageBase(std::move(name), timing, tokens.size(), trace),
        out_(out),
        tokens_(std::move(tokens)),
        pace_(std::move(pace)) {
    out_.bind_writer(*this);
  }

  bool step(Cycle now) override {
    if (idx_ >= tokens_.size()) return false;
    if (now < next_emit_) return false;
    if (!out_.can_push()) {
      out_.record_push_stall();
      return false;
    }
    const Cycle occupied =
        std::max<Cycle>(pace_ ? pace_(tokens_[idx_]) : timing_.ii, 1);
    out_.push(tokens_[idx_]);
    emission_cycles_.push_back(now);
    ++idx_;
    note_issue(now, occupied);
    next_emit_ = now + occupied;
    return true;
  }

  Cycle next_wake(Cycle now) const override {
    if (idx_ >= tokens_.size()) return kNoWake;
    if (next_emit_ > now) return next_emit_;
    return kNoWake;  // blocked on output space
  }

  bool done() const override { return idx_ >= tokens_.size(); }

  std::string describe_state() const override {
    return "emitted " + std::to_string(idx_) + "/" +
           std::to_string(tokens_.size()) + ", blocked on '" + out_.name() +
           "'";
  }

  /// Cycle at which each token entered the stream (latency accounting).
  const std::vector<Cycle>& emission_cycles() const {
    return emission_cycles_;
  }

 private:
  Channel<T>& out_;
  std::vector<T> tokens_;
  std::function<Cycle(const T&)> pace_;
  std::vector<Cycle> emission_cycles_;
  std::size_t idx_ = 0;
  Cycle next_emit_ = 0;
};

// ---------------------------------------------------------------------------
// SinkStage
// ---------------------------------------------------------------------------

/// Collects `expected` tokens into a vector (the engine reads them after the
/// run). `ii` models the drain rate of the result port.
template <typename T>
class SinkStage final : public StageBase {
 public:
  SinkStage(std::string name, Channel<T>& in, std::uint64_t expected,
            StageTiming timing, sim::Trace* trace = nullptr)
      : StageBase(std::move(name), timing, expected, trace), in_(in) {
    in_.bind_reader(*this);
    collected_.reserve(static_cast<std::size_t>(expected));
  }

  bool step(Cycle now) override {
    if (processed_ >= expected_) return false;
    if (now < next_take_) return false;
    if (!in_.can_pop()) {
      in_.record_pop_stall();
      return false;
    }
    collected_.push_back(in_.pop());
    arrival_cycles_.push_back(now);
    const Cycle occupied = std::max<Cycle>(timing_.ii, 1);
    note_issue(now, occupied);
    next_take_ = now + occupied;
    return true;
  }

  Cycle next_wake(Cycle now) const override {
    if (processed_ >= expected_) return kNoWake;
    if (next_take_ > now && in_.can_pop()) return next_take_;
    return kNoWake;
  }

  bool done() const override { return processed_ >= expected_; }

  std::string describe_state() const override {
    return "received " + std::to_string(processed_) + "/" +
           std::to_string(expected_) + ", waiting on '" + in_.name() + "'";
  }

  const std::vector<T>& collected() const { return collected_; }
  std::vector<T>&& take() { return std::move(collected_); }

  /// Cycle at which each token was drained (latency accounting).
  const std::vector<Cycle>& arrival_cycles() const { return arrival_cycles_; }

 private:
  Channel<T>& in_;
  std::vector<T> collected_;
  std::vector<Cycle> arrival_cycles_;
  Cycle next_take_ = 0;
};

// ---------------------------------------------------------------------------
// MapStage
// ---------------------------------------------------------------------------

/// One token in, one token out. The kernel may be stateful (carried values
/// such as the previous survival probability live in the captured state of a
/// mutable lambda). `work` computes the per-token occupancy for loop-nest
/// stages; when null the static `ii` applies.
template <typename In, typename Out>
class MapStage final : public StageBase {
 public:
  MapStage(std::string name, Channel<In>& in, Channel<Out>& out,
           std::function<Out(const In&)> kernel, StageTiming timing,
           std::uint64_t expected, sim::Trace* trace = nullptr,
           std::function<Cycle(const In&)> work = nullptr)
      : StageBase(std::move(name), timing, expected, trace),
        in_(in),
        out_(out),
        kernel_(std::move(kernel)),
        work_(std::move(work)) {
    CDSFLOW_EXPECT(kernel_ != nullptr, "MapStage requires a kernel");
    in_.bind_reader(*this);
    out_.bind_writer(*this);
  }

  bool step(Cycle now) override {
    bool progressed = commit_ready(now);
    if (processed_ < expected_ && now >= next_issue_ &&
        inflight_.size() < timing_.depth_or_default()) {
      if (in_.can_pop()) {
        const In token = in_.pop();
        const Cycle occupied =
            std::max<Cycle>(work_ ? work_(token) : timing_.ii, 1);
        inflight_.push_back({now + occupied + timing_.latency, kernel_(token)});
        note_issue(now, occupied);
        next_issue_ = now + occupied;
        progressed = true;
      } else {
        in_.record_pop_stall();
      }
    }
    return progressed;
  }

  Cycle next_wake(Cycle now) const override {
    Cycle wake = kNoWake;
    if (!inflight_.empty() && inflight_.front().ready > now) {
      wake = std::min(wake, inflight_.front().ready);
    }
    if (processed_ < expected_ && next_issue_ > now && in_.can_pop() &&
        inflight_.size() < timing_.depth_or_default()) {
      wake = std::min(wake, next_issue_);
    }
    return wake;
  }

  bool done() const override {
    return processed_ >= expected_ && inflight_.empty();
  }

  std::string describe_state() const override {
    return "issued " + std::to_string(processed_) + "/" +
           std::to_string(expected_) + ", in-flight " +
           std::to_string(inflight_.size()) + ", in='" + in_.name() +
           "' out='" + out_.name() + "'";
  }

 private:
  struct InFlight {
    Cycle ready;
    Out value;
  };

  bool commit_ready(Cycle now) {
    bool progressed = false;
    while (!inflight_.empty() && inflight_.front().ready <= now) {
      if (!out_.can_push()) {
        out_.record_push_stall();
        break;
      }
      out_.push(std::move(inflight_.front().value));
      inflight_.pop_front();
      progressed = true;
    }
    return progressed;
  }

  Channel<In>& in_;
  Channel<Out>& out_;
  std::function<Out(const In&)> kernel_;
  std::function<Cycle(const In&)> work_;
  std::deque<InFlight> inflight_;
  Cycle next_issue_ = 0;
};

// ---------------------------------------------------------------------------
// ExpandStage
// ---------------------------------------------------------------------------

/// One token in, a batch of tokens out, emitted one per `ii` cycles (the
/// time-point generator: one option in, its payment schedule out).
template <typename In, typename Out>
class ExpandStage final : public StageBase {
 public:
  ExpandStage(std::string name, Channel<In>& in, Channel<Out>& out,
              std::function<std::vector<Out>(const In&)> kernel,
              StageTiming timing, std::uint64_t expected_inputs,
              sim::Trace* trace = nullptr)
      : StageBase(std::move(name), timing, expected_inputs, trace),
        in_(in),
        out_(out),
        kernel_(std::move(kernel)) {
    CDSFLOW_EXPECT(kernel_ != nullptr, "ExpandStage requires a kernel");
    in_.bind_reader(*this);
    out_.bind_writer(*this);
  }

  bool step(Cycle now) override {
    bool progressed = false;
    // Emit from the active batch.
    if (emit_idx_ < batch_.size() && now >= next_emit_) {
      if (out_.can_push()) {
        out_.push(batch_[emit_idx_]);
        ++emit_idx_;
        note_issue(now, std::max<Cycle>(timing_.ii, 1));
        next_emit_ = now + std::max<Cycle>(timing_.ii, 1);
        progressed = true;
      } else {
        out_.record_push_stall();
      }
    }
    // Accept the next input once the batch is drained.
    if (emit_idx_ >= batch_.size() && consumed_ < expected_ &&
        now >= next_emit_) {
      if (in_.can_pop()) {
        batch_ = kernel_(in_.pop());
        emit_idx_ = 0;
        ++consumed_;
        // The generator itself needs `latency` cycles before the first
        // element appears.
        next_emit_ = now + timing_.latency;
        progressed = true;
      } else {
        in_.record_pop_stall();
      }
    }
    return progressed;
  }

  Cycle next_wake(Cycle now) const override {
    if (done()) return kNoWake;
    if (next_emit_ > now &&
        (emit_idx_ < batch_.size() || in_.can_pop())) {
      return next_emit_;
    }
    return kNoWake;
  }

  bool done() const override {
    return consumed_ >= expected_ && emit_idx_ >= batch_.size();
  }

  std::string describe_state() const override {
    return "consumed " + std::to_string(consumed_) + "/" +
           std::to_string(expected_) + ", batch " +
           std::to_string(emit_idx_) + "/" + std::to_string(batch_.size()) +
           ", in='" + in_.name() + "' out='" + out_.name() + "'";
  }

  std::uint64_t emitted() const { return emitted_total(); }

 private:
  std::uint64_t emitted_total() const {
    return processed_;  // note_issue counts emissions for Expand
  }

  Channel<In>& in_;
  Channel<Out>& out_;
  std::function<std::vector<Out>(const In&)> kernel_;
  std::vector<Out> batch_;
  std::size_t emit_idx_ = 0;
  std::uint64_t consumed_ = 0;
  Cycle next_emit_ = 0;
};

// ---------------------------------------------------------------------------
// ReduceStage
// ---------------------------------------------------------------------------

/// Accumulates a group of tokens and emits one result when the group's final
/// token (identified by `is_last`) has been folded in. The per-token `ii`
/// models the accumulation dependency: 7 for a carried double-precision add
/// (the Vitis library), 1 for the partial-sum rewrite of paper Listing 1.
template <typename In, typename Out>
class ReduceStage final : public StageBase {
 public:
  using Update = std::function<void(const In&)>;
  using Finish = std::function<Out()>;
  using IsLast = std::function<bool(const In&)>;

  ReduceStage(std::string name, Channel<In>& in, Channel<Out>& out,
              Update update, Finish finish, IsLast is_last, StageTiming timing,
              std::uint64_t expected_inputs, sim::Trace* trace = nullptr)
      : StageBase(std::move(name), timing, expected_inputs, trace),
        in_(in),
        out_(out),
        update_(std::move(update)),
        finish_(std::move(finish)),
        is_last_(std::move(is_last)) {
    CDSFLOW_EXPECT(update_ && finish_ && is_last_,
                   "ReduceStage requires update/finish/is_last");
    in_.bind_reader(*this);
    out_.bind_writer(*this);
  }

  bool step(Cycle now) override {
    bool progressed = false;
    // Commit a pending group result.
    if (pending_ && now >= result_ready_) {
      if (out_.can_push()) {
        out_.push(std::move(pending_value_));
        pending_ = false;
        progressed = true;
      } else {
        out_.record_push_stall();
      }
    }
    // Fold in the next token (blocked while a result awaits commit so the
    // group boundary stays unambiguous).
    if (!pending_ && processed_ < expected_ && now >= next_issue_) {
      if (in_.can_pop()) {
        const In token = in_.pop();
        update_(token);
        const Cycle occupied = std::max<Cycle>(timing_.ii, 1);
        note_issue(now, occupied);
        next_issue_ = now + occupied;
        if (is_last_(token)) {
          pending_value_ = finish_();
          pending_ = true;
          result_ready_ = now + occupied + timing_.latency;
        }
        progressed = true;
      } else {
        in_.record_pop_stall();
      }
    }
    return progressed;
  }

  Cycle next_wake(Cycle now) const override {
    Cycle wake = kNoWake;
    if (pending_ && result_ready_ > now) wake = std::min(wake, result_ready_);
    if (!pending_ && processed_ < expected_ && next_issue_ > now &&
        in_.can_pop()) {
      wake = std::min(wake, next_issue_);
    }
    return wake;
  }

  bool done() const override { return processed_ >= expected_ && !pending_; }

  std::string describe_state() const override {
    return "folded " + std::to_string(processed_) + "/" +
           std::to_string(expected_) + (pending_ ? ", result pending" : "") +
           ", in='" + in_.name() + "' out='" + out_.name() + "'";
  }

 private:
  Channel<In>& in_;
  Channel<Out>& out_;
  Update update_;
  Finish finish_;
  IsLast is_last_;
  bool pending_ = false;
  Out pending_value_{};
  Cycle result_ready_ = 0;
  Cycle next_issue_ = 0;
};

// ---------------------------------------------------------------------------
// ZipStage
// ---------------------------------------------------------------------------

/// Pops one token from each input stream (in lockstep, HLS style: the n-th
/// token of every stream belongs together) and produces one output token.
template <typename Out, typename... Ins>
class ZipStage final : public StageBase {
 public:
  ZipStage(std::string name, std::tuple<Channel<Ins>*...> ins,
           Channel<Out>& out, std::function<Out(const Ins&...)> kernel,
           StageTiming timing, std::uint64_t expected,
           sim::Trace* trace = nullptr)
      : StageBase(std::move(name), timing, expected, trace),
        ins_(ins),
        out_(out),
        kernel_(std::move(kernel)) {
    CDSFLOW_EXPECT(kernel_ != nullptr, "ZipStage requires a kernel");
    std::apply(
        [this](auto*... c) {
          auto bind = [this](auto* p) {
            CDSFLOW_EXPECT(p != nullptr, "ZipStage input channel is null");
            p->bind_reader(*this);
          };
          (bind(c), ...);
        },
        ins_);
    out_.bind_writer(*this);
  }

  bool step(Cycle now) override {
    bool progressed = commit_ready(now);
    if (processed_ < expected_ && now >= next_issue_ &&
        inflight_.size() < timing_.depth_or_default()) {
      if (all_can_pop()) {
        Out value = std::apply(
            [this](auto*... c) { return kernel_(c->pop()...); }, ins_);
        const Cycle occupied = std::max<Cycle>(timing_.ii, 1);
        inflight_.push_back({now + occupied + timing_.latency,
                             std::move(value)});
        note_issue(now, occupied);
        next_issue_ = now + occupied;
        progressed = true;
      } else {
        record_pop_stalls();
      }
    }
    return progressed;
  }

  Cycle next_wake(Cycle now) const override {
    Cycle wake = kNoWake;
    if (!inflight_.empty() && inflight_.front().ready > now) {
      wake = std::min(wake, inflight_.front().ready);
    }
    if (processed_ < expected_ && next_issue_ > now && all_can_pop() &&
        inflight_.size() < timing_.depth_or_default()) {
      wake = std::min(wake, next_issue_);
    }
    return wake;
  }

  bool done() const override {
    return processed_ >= expected_ && inflight_.empty();
  }

  std::string describe_state() const override {
    std::string blocked;
    std::apply(
        [&blocked](auto*... c) {
          ((c->can_pop() ? void() : void(blocked += " '" + c->name() + "'")),
           ...);
        },
        ins_);
    return "issued " + std::to_string(processed_) + "/" +
           std::to_string(expected_) +
           (blocked.empty() ? "" : ", waiting on" + blocked);
  }

 private:
  struct InFlight {
    Cycle ready;
    Out value;
  };

  bool all_can_pop() const {
    return std::apply([](auto*... c) { return (c->can_pop() && ...); }, ins_);
  }

  void record_pop_stalls() {
    std::apply(
        [](auto*... c) {
          ((c->can_pop() ? void() : c->record_pop_stall()), ...);
        },
        ins_);
  }

  bool commit_ready(Cycle now) {
    bool progressed = false;
    while (!inflight_.empty() && inflight_.front().ready <= now) {
      if (!out_.can_push()) {
        out_.record_push_stall();
        break;
      }
      out_.push(std::move(inflight_.front().value));
      inflight_.pop_front();
      progressed = true;
    }
    return progressed;
  }

  std::tuple<Channel<Ins>*...> ins_;
  Channel<Out>& out_;
  std::function<Out(const Ins&...)> kernel_;
  std::deque<InFlight> inflight_;
  Cycle next_issue_ = 0;
};

// ---------------------------------------------------------------------------
// BroadcastStage
// ---------------------------------------------------------------------------

/// Copies each input token to every output stream (HLS stream duplication;
/// a stream has a single consumer, so fan-out requires explicit copies).
/// A token moves only when *all* outputs have space.
template <typename T>
class BroadcastStage final : public StageBase {
 public:
  BroadcastStage(std::string name, Channel<T>& in,
                 std::vector<Channel<T>*> outs, StageTiming timing,
                 std::uint64_t expected, sim::Trace* trace = nullptr)
      : StageBase(std::move(name), timing, expected, trace),
        in_(in),
        outs_(std::move(outs)) {
    CDSFLOW_EXPECT(!outs_.empty(), "BroadcastStage requires outputs");
    in_.bind_reader(*this);
    for (auto* c : outs_) {
      CDSFLOW_EXPECT(c != nullptr, "BroadcastStage output channel is null");
      c->bind_writer(*this);
    }
  }

  bool step(Cycle now) override {
    if (processed_ >= expected_ || now < next_issue_) return false;
    if (!in_.can_pop()) {
      in_.record_pop_stall();
      return false;
    }
    for (auto* c : outs_) {
      if (!c->can_push()) {
        c->record_push_stall();
        return false;
      }
    }
    const T token = in_.pop();
    for (auto* c : outs_) c->push(token);
    const Cycle occupied = std::max<Cycle>(timing_.ii, 1);
    note_issue(now, occupied);
    next_issue_ = now + occupied;
    return true;
  }

  Cycle next_wake(Cycle now) const override {
    if (processed_ >= expected_) return kNoWake;
    if (next_issue_ > now && in_.can_pop()) return next_issue_;
    return kNoWake;
  }

  bool done() const override { return processed_ >= expected_; }

  std::string describe_state() const override {
    return "forwarded " + std::to_string(processed_) + "/" +
           std::to_string(expected_) + ", in='" + in_.name() + "'";
  }

 private:
  Channel<T>& in_;
  std::vector<Channel<T>*> outs_;
  Cycle next_issue_ = 0;
};

}  // namespace cdsflow::hls
