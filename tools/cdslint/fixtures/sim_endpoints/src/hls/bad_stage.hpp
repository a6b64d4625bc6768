// Seeded violation for the sim-endpoints rule: a stage that pushes and pops
// channels it never declares, so the scheduler would never wake it (or its
// neighbours) on their FIFO activity.
#pragma once

#include <vector>

#include "hls/stage.hpp"

namespace cdsflow::hls {

class SilentForwarder final : public StageBase {
 public:
  SilentForwarder(std::string name, Channel<int>& in,
                  std::vector<Channel<int>*> outs)
      : StageBase(std::move(name), StageTiming{}, 0), in_(in),
        outs_(std::move(outs)) {}

  bool step(Cycle) override {
    if (!in_.can_pop()) return false;
    const int v = in_.pop();
    for (auto* c : outs_) c->push(v);
    return true;
  }
  Cycle next_wake(Cycle) const override { return kNoWake; }
  bool done() const override { return false; }

 private:
  Channel<int>& in_;
  std::vector<Channel<int>*> outs_;
};

}  // namespace cdsflow::hls
