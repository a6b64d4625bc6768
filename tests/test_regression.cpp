/// \file test_regression.cpp
/// Pinned-value regression guards.
///
/// The simulator is deterministic and the pricing maths is pure, so exact
/// values can be pinned: any unintended change to the numerics (summation
/// order, interpolation, schedule generation) or to the calibrated cost
/// model (II, latency, restart, feed constants) trips these tests. An
/// *intentional* model change must update the pins -- that is the point:
/// calibration drift should never be silent.
///
/// Pins generated from the paper scenario, seed 42, 8 options, except the
/// simulated-engine digests (64 options, see SimulatedEngineOutputBitsPinned).

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>

#include "cds/pricer.hpp"
#include "engines/interoption_engine.hpp"
#include "engines/registry.hpp"
#include "engines/vectorised_engine.hpp"
#include "workload/scenario.hpp"

namespace cdsflow {
namespace {

struct SpreadPin {
  std::int32_t id;
  double spread_bps;
};

// Golden-model spreads on the paper scenario (seed 42): full double
// precision.
constexpr SpreadPin kSpreadPins[] = {
    {0, 164.14440123303959}, {1, 181.39907785955759},
    {2, 175.39776036934504}, {3, 235.23422231758764},
    {4, 185.5925698701331},  {5, 167.905059374232},
    {6, 269.39375063855323}, {7, 176.8015312715969},
};

// Simulated kernel cycles for the same 8-option batch per engine
// generation. These encode the calibrated cost model of DESIGN.md §5.
struct CyclePin {
  const char* engine;
  sim::Cycle cycles;
};
constexpr CyclePin kCyclePins[] = {
    {"xilinx-baseline", 806748},
    {"dataflow", 344988},
    {"dataflow-interoption", 217959},
    {"vectorised", 109505},
};

workload::Scenario pinned_scenario() {
  return workload::paper_scenario(8, 42);
}

TEST(Regression, GoldenSpreadsPinned) {
  const auto scenario = pinned_scenario();
  const cds::ReferencePricer golden(scenario.interest, scenario.hazard);
  ASSERT_EQ(scenario.options.size(), std::size(kSpreadPins));
  for (std::size_t i = 0; i < std::size(kSpreadPins); ++i) {
    EXPECT_EQ(scenario.options[i].id, kSpreadPins[i].id);
    // Bitwise determinism of the pure-fp64 in-order pipeline.
    EXPECT_DOUBLE_EQ(golden.spread_bps(scenario.options[i]),
                     kSpreadPins[i].spread_bps)
        << "option " << i;
  }
}

TEST(Regression, EngineKernelCyclesPinned) {
  const auto scenario = pinned_scenario();
  for (const auto& pin : kCyclePins) {
    auto engine =
        engine::make_engine(pin.engine, scenario.interest, scenario.hazard);
    const auto run = engine->price(scenario.options);
    EXPECT_EQ(run.kernel_cycles, pin.cycles) << pin.engine;
  }
}

TEST(Regression, PinnedCyclesEncodeTheTableIOrdering) {
  // Self-check of the pins themselves: they must tell the paper's story.
  EXPECT_GT(kCyclePins[0].cycles, 2 * kCyclePins[1].cycles);  // ~2.3x
  EXPECT_GT(kCyclePins[1].cycles,
            static_cast<sim::Cycle>(1.5 * kCyclePins[2].cycles));
  EXPECT_GT(kCyclePins[2].cycles,
            static_cast<sim::Cycle>(1.9 * kCyclePins[3].cycles));
}

/// FNV-1a (64-bit) over 64-bit words: a digest of exact bit patterns.
class Fnv1a {
 public:
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (word >> (8 * b)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  void add(const std::vector<sim::Cycle>& xs) {
    add(static_cast<std::uint64_t>(xs.size()));
    for (const sim::Cycle x : xs) add(static_cast<std::uint64_t>(x));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Digest of everything a simulated engine reports about one batch: each
/// spread's id and bit pattern, the kernel cycles, and -- where the engine
/// exposes them -- its last_run() latency and busy-cycle statistics.
std::uint64_t engine_output_digest(engine::Engine& engine,
                                   const std::vector<cds::CdsOption>& book) {
  const auto run = engine.price(book);
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(run.results.size()));
  for (const auto& r : run.results) {
    h.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(r.id)));
    h.add(r.spread_bps);
  }
  h.add(static_cast<std::uint64_t>(run.kernel_cycles));
  if (const auto* e = dynamic_cast<engine::InterOptionEngine*>(&engine)) {
    const auto& s = e->last_run();
    h.add(static_cast<std::uint64_t>(s.total_time_points));
    h.add(static_cast<std::uint64_t>(s.hazard_busy));
    h.add(static_cast<std::uint64_t>(s.interp_busy));
    h.add(s.option_latency_cycles);
  }
  if (const auto* e = dynamic_cast<engine::VectorisedEngine*>(&engine)) {
    const auto& s = e->last_run();
    h.add(s.hazard_lane_busy);
    h.add(s.interp_lane_busy);
    h.add(static_cast<std::uint64_t>(s.hazard_scheduler_busy));
    h.add(static_cast<std::uint64_t>(s.interp_scheduler_busy));
    h.add(static_cast<std::uint64_t>(s.span));
    h.add(s.option_latency_cycles);
  }
  return h.value();
}

struct DigestPin {
  const char* engine;
  std::uint64_t paper;     ///< paper_scenario(64), seed 42
  std::uint64_t stressed;  ///< stressed_scenario(64), seed 1234
};
// Computed from the per-option-scan simulator the wake-list scheduler and
// the O(log n) stage value paths replaced: they must reproduce every bit.
constexpr DigestPin kDigestPins[] = {
    {"xilinx-baseline", 0x55DC4BB63B3E6394ULL, 0xDC2A8A4EFECCEC05ULL},
    {"dataflow", 0x79539605B151C349ULL, 0x681FCA826D7BEF67ULL},
    {"dataflow-interoption", 0x9DF15A25ABAC4327ULL, 0x1F329CACFCBB157CULL},
    {"vectorised", 0xF3F49A17D106A9A1ULL, 0xBFE1D04092A159BEULL},
    {"multi-5", 0xBD066E76C01BC7B6ULL, 0x711320A57BE03EF3ULL},
};

std::string hex(std::uint64_t x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llX",
                static_cast<unsigned long long>(x));
  return buf;
}

TEST(Regression, SimulatedEngineOutputBitsPinned) {
  const auto paper = workload::paper_scenario(64, 42);
  const auto stressed = workload::stressed_scenario(64, 1234);
  for (const auto& pin : kDigestPins) {
    auto on_paper =
        engine::make_engine(pin.engine, paper.interest, paper.hazard);
    EXPECT_EQ(hex(engine_output_digest(*on_paper, paper.options)),
              hex(pin.paper))
        << pin.engine << " on paper_scenario(64)";
    auto on_stressed =
        engine::make_engine(pin.engine, stressed.interest, stressed.hazard);
    EXPECT_EQ(hex(engine_output_digest(*on_stressed, stressed.options)),
              hex(pin.stressed))
        << pin.engine << " on stressed_scenario(64)";
  }
}

TEST(Regression, WorkloadGenerationPinned) {
  // The workload generator feeding every bench must stay stable too.
  const auto scenario = pinned_scenario();
  EXPECT_DOUBLE_EQ(scenario.options[0].maturity_years, 1.7547667395389395);
  EXPECT_DOUBLE_EQ(scenario.options[0].recovery_rate, 0.47201736441125575);
  EXPECT_DOUBLE_EQ(scenario.interest.value(0), 0.015794028181275517);
  EXPECT_DOUBLE_EQ(scenario.hazard.value(511), 0.045291199529064172);
}

}  // namespace
}  // namespace cdsflow
