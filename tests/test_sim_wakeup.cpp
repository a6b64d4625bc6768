/// \file test_sim_wakeup.cpp
/// Differential test of the wake-list scheduler: Simulation::run against
/// the loop it replaced, kept here as a brute-force oracle, on seeded random
/// pipelines of the hls stages. Also: undeclared channel use fails loudly,
/// single-producer/single-consumer binding, and scheduler effort that
/// follows events rather than processes.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hls/replicate.hpp"
#include "hls/stage.hpp"
#include "hls/stream.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"

namespace cdsflow::sim {
namespace {

// Processes hold a back-pointer to their Simulation.
static_assert(!std::is_copy_constructible_v<Simulation>);
static_assert(!std::is_copy_assignable_v<Simulation>);
static_assert(!std::is_move_constructible_v<Simulation>);
static_assert(!std::is_move_assignable_v<Simulation>);

/// The scheduler loop Simulation::run replaced: settle each cycle by
/// stepping every live process in registration order, pass after pass,
/// until a whole pass moves nothing; then advance to the minimum next_wake
/// over every live process. Runs outside Simulation::run, so channels wake
/// nobody and check no endpoints.
SimResult brute_force_run(Simulation& sim) {
  const auto& procs = sim.processes();
  SimResult result;
  Cycle now = 0;
  while (true) {
    bool cycle_was_active = false;
    bool progressed = true;
    std::uint64_t settle_rounds = 0;
    while (progressed) {
      progressed = false;
      for (const auto& p : procs) {
        if (p->done()) continue;
        ++result.total_steps;
        if (p->step(now)) progressed = true;
      }
      cycle_was_active |= progressed;
      if (++settle_rounds > 16 + 4 * procs.size()) {
        throw Error("oracle: settle loop did not converge");
      }
    }
    if (cycle_was_active) ++result.active_cycles;
    if (std::all_of(procs.begin(), procs.end(),
                    [](const auto& p) { return p->done(); })) {
      result.end_cycle = now;
      return result;
    }
    Cycle next = kNoWake;
    for (const auto& p : procs) {
      if (!p->done()) next = std::min(next, p->next_wake(now));
    }
    if (next == kNoWake) throw Error("oracle: deadlock");
    if (next <= now) throw Error("oracle: next_wake not in the future");
    now = next;
  }
}

// --- random pipelines ----------------------------------------------------

/// A token: a value, the position of the source token it descends from, and
/// one "last child" bit per expansion nesting level.
struct Tok {
  std::uint64_t v = 0;
  std::uint32_t seq = 0;
  std::uint32_t last = 0;
};

/// Builds a random graph of source -> chain -> sink pipelines from a seed.
/// Chains nest map, replicated pool, broadcast/zip and expand/reduce
/// segments with random depths, IIs, latencies and work functions. The
/// stages are registered in a seeded random order, so producers often come
/// after their consumers. Two graphs built from one seed are identical.
class RandomGraph {
 public:
  RandomGraph(Simulation& sim, std::uint64_t seed) : sim_(sim), rng_(seed) {
    const int pipelines = pick(1, 2);
    for (int p = 0; p < pipelines; ++p) add_pipeline();
    for (std::size_t i = adders_.size(); i > 1; --i) {
      const int j = pick(0, static_cast<int>(i) - 1);
      std::swap(adders_[i - 1], adders_[static_cast<std::size_t>(j)]);
    }
    for (auto& add : adders_) add();
  }

  Trace trace;
  std::vector<hls::SinkStage<Tok>*> sinks;

 private:
  int pick(int lo, int hi) {
    return static_cast<int>(rng_.uniform_int(lo, hi));
  }

  Channel<Tok>& stream() {
    return hls::make_stream<Tok>(sim_, "s" + std::to_string(streams_++),
                                 static_cast<std::size_t>(pick(1, 4)));
  }

  hls::StageTiming timing() {
    hls::StageTiming t;
    t.latency = static_cast<Cycle>(pick(0, 6));
    t.ii = static_cast<Cycle>(pick(1, 4));
    t.pipeline_depth = static_cast<std::size_t>(pick(0, 4));
    return t;
  }

  /// Per-token occupancy that depends on the token's value, or null.
  std::function<Cycle(const Tok&)> work() {
    if (pick(0, 2) == 0) return nullptr;
    const auto span = static_cast<std::uint64_t>(pick(2, 9));
    const auto salt = static_cast<std::uint64_t>(pick(0, 1000));
    return [span, salt](const Tok& t) -> Cycle {
      return 1 + (t.v + salt) % span;
    };
  }

  std::string name(const char* kind) {
    return std::string(kind) + std::to_string(stages_++);
  }

  void add_pipeline() {
    const int n = pick(1, 12);
    std::vector<Tok> tokens;
    std::vector<std::uint32_t> seqs;
    for (int i = 0; i < n; ++i) {
      const auto seq = static_cast<std::uint32_t>(i);
      tokens.push_back({rng_.next_u64() % 1000, seq, 0});
      seqs.push_back(seq);
    }
    auto& in = stream();
    std::function<Cycle(const Tok&)> pace;
    if (pick(0, 1) == 0) {
      pace = [](const Tok& t) -> Cycle { return 1 + t.v % 3; };
    }
    adders_.push_back([this, &in, tokens, t = timing(), pace,
                       nm = name("src")] {
      sim_.add_process<hls::SourceStage<Tok>>(nm, in, tokens, t, &trace, pace);
    });
    auto& out = chain(in, seqs, 0, 3);
    const auto expected = static_cast<std::uint64_t>(n);
    auto slot = sinks.size();
    sinks.push_back(nullptr);
    adders_.push_back([this, &out, expected, slot, t = timing(),
                       nm = name("sink")] {
      sinks[slot] =
          &sim_.add_process<hls::SinkStage<Tok>>(nm, out, expected, t, &trace);
    });
  }

  /// Appends 1-3 count-preserving segments after `in`, which carries one
  /// token per entry of `seqs` (in order); returns the output stream.
  Channel<Tok>& chain(Channel<Tok>& in, const std::vector<std::uint32_t>& seqs,
                      unsigned level, int budget) {
    Channel<Tok>* cur = &in;
    const int segments = pick(1, 3);
    for (int s = 0; s < segments; ++s) {
      const int kind = budget > 0 ? pick(0, 3) : 0;
      switch (kind) {
        case 0: cur = &map(*cur, seqs.size()); break;
        case 1: cur = &pool(*cur, seqs.size()); break;
        case 2: cur = &fork_join(*cur, seqs, level, budget - 1); break;
        default:
          cur = level < 4 ? &expand_reduce(*cur, seqs, level, budget - 1)
                          : &map(*cur, seqs.size());
          break;
      }
    }
    return *cur;
  }

  Channel<Tok>& map(Channel<Tok>& in, std::size_t n) {
    auto& out = stream();
    const auto mul = static_cast<std::uint64_t>(pick(1, 97));
    const auto add = static_cast<std::uint64_t>(pick(0, 97));
    // A stateful kernel: carries a running value across tokens.
    auto carry = std::make_shared<std::uint64_t>(0);
    std::function<Tok(const Tok&)> kernel = [mul, add, carry](const Tok& t) {
      *carry = *carry * 3 + t.v;
      return Tok{t.v * mul + add + (*carry & 7), t.seq, t.last};
    };
    adders_.push_back([this, &in, &out, kernel, n, t = timing(), w = work(),
                       nm = name("map")] {
      sim_.add_process<hls::MapStage<Tok, Tok>>(nm, in, out, kernel, t, n,
                                                &trace, w);
    });
    return out;
  }

  Channel<Tok>& pool(Channel<Tok>& in, std::size_t n) {
    auto& out = stream();
    hls::ReplicationConfig cfg;
    cfg.lanes = static_cast<std::size_t>(pick(1, 4));
    cfg.feed_elements_per_cycle = 0.5 * pick(1, 6);
    cfg.lane_stream_depth = static_cast<std::size_t>(pick(1, 4));
    std::function<double(const Tok&)> feed;
    if (pick(0, 1) == 0) {
      feed = [](const Tok& t) { return static_cast<double>(1 + t.v % 5); };
    }
    adders_.push_back([this, &in, &out, cfg, feed, n, t = timing(), w = work(),
                       nm = name("pool")] {
      hls::make_replicated_pool<Tok, Tok>(
          sim_, nm, in, out, cfg,
          [](std::size_t lane) {
            return std::function<Tok(const Tok&)>([lane](const Tok& t) {
              return Tok{t.v + lane, t.seq, t.last};
            });
          },
          w, feed, t, n, &trace);
    });
    return out;
  }

  Channel<Tok>& fork_join(Channel<Tok>& in,
                          const std::vector<std::uint32_t>& seqs,
                          unsigned level, int budget) {
    const std::size_t n = seqs.size();
    auto& a = stream();
    auto& b = stream();
    auto& out = stream();
    const bool three = pick(0, 1) == 1;
    Channel<Tok>* c = three ? &stream() : nullptr;
    std::vector<Channel<Tok>*> outs{&a, &b};
    if (three) outs.push_back(c);
    adders_.push_back([this, &in, outs, n, t = timing(), nm = name("fan")] {
      sim_.add_process<hls::BroadcastStage<Tok>>(nm, in, outs, t, n, &trace);
    });
    auto& ja = chain(a, seqs, level, budget);
    auto& jb = chain(b, seqs, level, budget);
    if (three) {
      auto& jc = chain(*c, seqs, level, budget);
      adders_.push_back([this, &ja, &jb, &jc, &out, n, t = timing(),
                         nm = name("zip3")] {
        sim_.add_process<hls::ZipStage<Tok, Tok, Tok, Tok>>(
            nm, std::make_tuple(&ja, &jb, &jc), out,
            [](const Tok& x, const Tok& y, const Tok& z) {
              return Tok{x.v ^ (y.v * 3) ^ (z.v * 7), x.seq, x.last};
            },
            t, n, &trace);
      });
    } else {
      adders_.push_back([this, &ja, &jb, &out, n, t = timing(),
                         nm = name("zip")] {
        sim_.add_process<hls::ZipStage<Tok, Tok, Tok>>(
            nm, std::make_tuple(&ja, &jb), out,
            [](const Tok& x, const Tok& y) {
              return Tok{x.v ^ (y.v * 3), x.seq, x.last};
            },
            t, n, &trace);
      });
    }
    return out;
  }

  /// 1 -> K(seq) tokens, an inner chain one nesting level down, then K -> 1.
  Channel<Tok>& expand_reduce(Channel<Tok>& in,
                              const std::vector<std::uint32_t>& seqs,
                              unsigned level, int budget) {
    const auto kmax = static_cast<std::uint32_t>(pick(1, 4));
    const auto mul = static_cast<std::uint32_t>(pick(1, 7));
    auto fanout = [kmax, mul](std::uint32_t seq) {
      return 1 + seq * mul % kmax;
    };
    std::vector<std::uint32_t> inner;
    for (const auto s : seqs) inner.insert(inner.end(), fanout(s), s);
    const std::uint32_t bit = 1u << level;

    auto& mid = stream();
    auto& out = stream();
    adders_.push_back([this, &in, &mid, fanout, bit, n = seqs.size(),
                       t = timing(), nm = name("expand")] {
      sim_.add_process<hls::ExpandStage<Tok, Tok>>(
          nm, in, mid,
          [fanout, bit](const Tok& t) {
            std::vector<Tok> kids;
            const std::uint32_t k = fanout(t.seq);
            for (std::uint32_t i = 0; i < k; ++i) {
              kids.push_back({t.v + i, t.seq,
                              (t.last & ~bit) | (i + 1 == k ? bit : 0u)});
            }
            return kids;
          },
          t, n, &trace);
    });
    auto& folded = chain(mid, inner, level + 1, budget);

    struct Group {
      std::uint64_t acc = 0;
      Tok last_seen;
      bool fresh = true;
    };
    auto group = std::make_shared<Group>();
    adders_.push_back([this, &folded, &out, group, bit, n = inner.size(),
                       t = timing(), nm = name("reduce")] {
      sim_.add_process<hls::ReduceStage<Tok, Tok>>(
          nm, folded, out,
          [group, bit](const Tok& t) {
            if (group->fresh) group->acc = 0;
            group->acc = group->acc * 31 + t.v;
            group->last_seen = t;
            group->fresh = (t.last & bit) != 0;
          },
          [group, bit]() {
            return Tok{group->acc, group->last_seen.seq,
                       group->last_seen.last & ~bit};
          },
          [bit](const Tok& t) { return (t.last & bit) != 0; }, t, n, &trace);
    });
    return out;
  }

  Simulation& sim_;
  Rng rng_;
  std::vector<std::function<void()>> adders_;
  int streams_ = 0;
  int stages_ = 0;
};

std::vector<Cycle> busy_by_stage(const Simulation& sim) {
  std::vector<Cycle> busy;
  for (const auto& p : sim.processes()) {
    const auto* stage = dynamic_cast<const hls::StageBase*>(p.get());
    busy.push_back(stage != nullptr ? stage->busy_cycles() : 0);
  }
  return busy;
}

std::vector<std::tuple<std::size_t, Cycle, Cycle>> intervals(
    const Trace& trace) {
  std::vector<std::tuple<std::size_t, Cycle, Cycle>> out;
  for (const auto& iv : trace.intervals()) {
    out.emplace_back(iv.track, iv.begin, iv.end);
  }
  return out;
}

TEST(SimWakeup, MatchesBruteForceOracleOnRandomPipelines) {
  constexpr std::uint64_t kGraphs = 256;
  std::uint64_t woken_steps = 0, oracle_steps = 0;
  for (std::uint64_t seed = 1; seed <= kGraphs; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Simulation fast_sim, slow_sim;
    RandomGraph fast(fast_sim, seed);
    RandomGraph slow(slow_sim, seed);
    ASSERT_EQ(fast_sim.process_count(), slow_sim.process_count());

    const SimResult got = fast_sim.run();
    const SimResult want = brute_force_run(slow_sim);

    EXPECT_EQ(got.end_cycle, want.end_cycle);
    EXPECT_EQ(got.active_cycles, want.active_cycles);
    EXPECT_LE(got.total_steps, want.total_steps);
    woken_steps += got.total_steps;
    oracle_steps += want.total_steps;
    ASSERT_EQ(fast.sinks.size(), slow.sinks.size());
    for (std::size_t s = 0; s < fast.sinks.size(); ++s) {
      EXPECT_EQ(fast.sinks[s]->arrival_cycles(),
                slow.sinks[s]->arrival_cycles());
      const auto& a = fast.sinks[s]->collected();
      const auto& b = slow.sinks[s]->collected();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].v, b[i].v);
        EXPECT_EQ(a[i].seq, b[i].seq);
      }
    }
    EXPECT_EQ(busy_by_stage(fast_sim), busy_by_stage(slow_sim));

    auto got_iv = intervals(fast.trace);
    auto want_iv = intervals(slow.trace);
    // Same successful steps in the same order (the scheduler's contract),
    // hence the same intervals in the same order ...
    EXPECT_EQ(got_iv, want_iv);
    // ... and, the property the trace consumers need, the same multiset.
    std::sort(got_iv.begin(), got_iv.end());
    std::sort(want_iv.begin(), want_iv.end());
    EXPECT_EQ(got_iv, want_iv);
  }
  // Woken steps only: a fraction of stepping every process every pass.
  EXPECT_LT(woken_steps, oracle_steps);
}

// --- declared endpoints ------------------------------------------------------

/// Pushes one token into `out` without declaring itself its writer.
class UndeclaredWriter final : public Process {
 public:
  UndeclaredWriter(std::string name, Channel<int>& out)
      : Process(std::move(name)), out_(out) {}
  bool step(Cycle) override {
    if (sent_ || !out_.can_push()) return false;
    out_.push(1);
    sent_ = true;
    return true;
  }
  Cycle next_wake(Cycle) const override { return kNoWake; }
  bool done() const override { return sent_; }

 private:
  Channel<int>& out_;
  bool sent_ = false;
};

/// Pops `count` tokens; declares itself the reader only when asked to.
class Reader final : public Process {
 public:
  Reader(std::string name, Channel<int>& in, int count, bool declare)
      : Process(std::move(name)), in_(in), count_(count) {
    if (declare) in_.bind_reader(*this);
  }
  bool step(Cycle) override {
    if (received_ >= count_ || !in_.can_pop()) return false;
    in_.pop();
    ++received_;
    return true;
  }
  Cycle next_wake(Cycle) const override { return kNoWake; }
  bool done() const override { return received_ >= count_; }

 private:
  Channel<int>& in_;
  int count_;
  int received_ = 0;
};

/// Emits `count` tokens one cycle apart from cycle `first` (declared
/// writer).
class Ticker final : public Process {
 public:
  Ticker(std::string name, Channel<int>& out, int count, Cycle first = 0)
      : Process(std::move(name)), out_(out), count_(count), next_(first) {
    out_.bind_writer(*this);
  }
  bool step(Cycle now) override {
    if (emitted_ >= count_ || now < next_ || !out_.can_push()) return false;
    out_.push(emitted_++);
    next_ = now + 1;
    return true;
  }
  Cycle next_wake(Cycle now) const override {
    return emitted_ < count_ && next_ > now ? next_ : kNoWake;
  }
  bool done() const override { return emitted_ >= count_; }

 private:
  Channel<int>& out_;
  int count_;
  int emitted_ = 0;
  Cycle next_;
};

TEST(SimWakeup, UndeclaredWriterFailsLoudly) {
  Simulation sim;
  auto& ch = sim.make_channel<int>("undeclared_out", 2);
  sim.add_process<Reader>("reader", ch, 1, /*declare=*/true);
  sim.add_process<UndeclaredWriter>("sneaky_writer", ch);
  try {
    sim.run();
    FAIL() << "expected an undeclared-endpoint error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sneaky_writer"), std::string::npos) << what;
    EXPECT_NE(what.find("undeclared_out"), std::string::npos) << what;
    EXPECT_NE(what.find("without declaring"), std::string::npos) << what;
  }
}

TEST(SimWakeup, UndeclaredReaderFailsLoudly) {
  Simulation sim;
  auto& ch = sim.make_channel<int>("undeclared_in", 2);
  sim.add_process<Ticker>("ticker", ch, 3);
  sim.add_process<Reader>("sneaky_reader", ch, 3, /*declare=*/false);
  try {
    sim.run();
    FAIL() << "expected an undeclared-endpoint error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sneaky_reader"), std::string::npos) << what;
    EXPECT_NE(what.find("undeclared_in"), std::string::npos) << what;
  }
}

TEST(SimWakeup, ChannelsAreSingleProducerSingleConsumer) {
  Simulation sim;
  auto& ch = sim.make_channel<int>("spsc", 2);
  sim.add_process<Reader>("first", ch, 1, /*declare=*/true);
  EXPECT_THROW(sim.add_process<Reader>("second", ch, 1, /*declare=*/true),
               Error);
  sim.add_process<Ticker>("producer", ch, 1);
  EXPECT_THROW(sim.add_process<Ticker>("other_producer", ch, 1), Error);
}

TEST(SimWakeup, StepsFollowEventsNotProcesses) {
  // One pair streams 1000 tokens, one per cycle, while 30 pairs stay live
  // waiting on a timer at cycle 999. Stepping every live process in every
  // pass costs ~2 x 62 steps per cycle; waking only the busy pair costs a
  // handful per token, and the waiting pairs are stepped at 0 and 999 only.
  auto build = [](Simulation& sim) {
    auto& busy = sim.make_channel<int>("busy", 2);
    sim.add_process<Ticker>("busy_src", busy, 1000);
    for (int i = 0; i < 30; ++i) {
      auto& ch = sim.make_channel<int>("wait" + std::to_string(i), 1);
      sim.add_process<Ticker>("wait_src" + std::to_string(i), ch, 1, 999);
      sim.add_process<Reader>("wait_dst" + std::to_string(i), ch, 1, true);
    }
    sim.add_process<Reader>("busy_dst", busy, 1000, true);
  };
  Simulation woken, polled;
  build(woken);
  build(polled);
  const auto got = woken.run();
  const auto want = brute_force_run(polled);
  EXPECT_EQ(got.end_cycle, 999u);
  EXPECT_EQ(got.end_cycle, want.end_cycle);
  EXPECT_EQ(got.active_cycles, want.active_cycles);
  EXPECT_LE(got.total_steps, 5u * 1000u + 4u * 62u);
  EXPECT_GT(want.total_steps, 20u * got.total_steps);
}

}  // namespace
}  // namespace cdsflow::sim
