// Clean counterpart of bad_stage.hpp: every channel member is declared --
// directly, through a range-for over a pointer vector, and through
// std::apply over a tuple of pointers. The self-test fails if the
// sim-endpoints rule flags anything here.
#pragma once

#include <tuple>
#include <vector>

#include "hls/stage.hpp"

namespace cdsflow::hls {

class DeclaredForwarder final : public StageBase {
 public:
  DeclaredForwarder(std::string name, Channel<int>& in,
                    std::vector<Channel<int>*> outs,
                    std::tuple<Channel<int>*, Channel<int>*> taps)
      : StageBase(std::move(name), StageTiming{}, 0), in_(in),
        outs_(std::move(outs)), taps_(taps) {
    in_.bind_reader(*this);
    for (auto* c : outs_) {
      c->bind_writer(*this);
    }
    std::apply([this](auto*... c) { (c->bind_writer(*this), ...); }, taps_);
  }

  bool step(Cycle) override {
    if (!in_.can_pop()) return false;
    const int v = in_.pop();
    for (auto* c : outs_) c->push(v);
    std::get<0>(taps_)->push(v);
    std::get<1>(taps_)->push(v);
    return true;
  }
  Cycle next_wake(Cycle) const override { return kNoWake; }
  bool done() const override { return false; }

 private:
  Channel<int>& in_;
  std::vector<Channel<int>*> outs_;
  std::tuple<Channel<int>*, Channel<int>*> taps_;
};

}  // namespace cdsflow::hls
