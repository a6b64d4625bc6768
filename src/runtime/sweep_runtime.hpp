/// \file sweep_runtime.hpp
/// Scenario-axis scaling layer: shard one book's scenario sweep across a
/// pool of SweepPricer replicas.
///
/// The batch runtime shards the *options* axis; the sweep runtime shards
/// the *scenario* axis with the identical recipe and the identical
/// determinism contract: shards are contiguous scenario ranges, each range
/// is swept whole by one replica, and per-shard outputs land in disjoint
/// slices of one aggregate array -- submission order by construction,
/// whichever lane finished first. Every replica prices the same book on
/// the same grids at the same kernel level, and SweepPricer's per-scenario
/// values are invariant under scenario grouping (vector_kernel.hpp), so
/// the merged aggregates are bit-identical across worker counts and shard
/// sizes (tested in test_sweep_pricer).
///
/// Modelled vs wall throughput mirrors PortfolioRuntime: modelled is the
/// deterministic list-schedule makespan of measured per-shard seconds over
/// the lanes (meaningful on a 1-core CI box), wall is elapsed host time of
/// the parallel section.

#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "cds/curve.hpp"
#include "cds/sweep_pricer.hpp"
#include "cds/types.hpp"

namespace cdsflow::runtime {

class ThreadPool;

struct SweepRuntimeConfig {
  /// Worker threads == replica lanes. 0 selects hardware_concurrency().
  unsigned workers = 0;
  /// Scenarios per shard, used as given. 0 picks auto_shard_size() over the
  /// scenario count, rounded up to a multiple of the kernel's vector lanes:
  /// the hazard sweep tabulates lanes(level) scenarios per group and pads
  /// a partial group, so a shard of 6 on 8 lanes would pay for 8.
  std::size_t shard_size = 0;
  /// Kernel level of every replica (clamped to the host, like BatchPricer).
  cds::simd::Level level = cds::simd::Level::kScalar;
};

/// Per-shard accounting, in shard (= submission) order.
struct SweepShardOutcome {
  std::size_t index = 0;
  std::size_t begin = 0;  ///< first scenario (inclusive)
  std::size_t end = 0;    ///< one past the last scenario
  double seconds = 0.0;   ///< measured sweep time of this shard
  unsigned lane = 0;      ///< deterministic list-schedule lane
};

struct SweepRun {
  /// Per-scenario aggregates in scenario (= submission) order.
  std::vector<cds::ScenarioAggregate> aggregates;
  /// Shard stats merged in shard order.
  cds::SweepStats stats;
  std::vector<SweepShardOutcome> shards;

  unsigned lanes = 1;
  std::size_t shard_size = 0;

  /// Modelled list-schedule makespan of the per-shard times.
  double modelled_seconds = 0.0;
  double modelled_scenarios_per_second = 0.0;
  /// Measured host wall time of the parallel section.
  double wall_seconds = 0.0;
  double wall_scenarios_per_second = 0.0;
};

class SweepRuntime {
 public:
  /// Builds one SweepPricer replica per lane up front (each replica dedups
  /// the book and tabulates the base grids once -- the sweep's setup cost,
  /// paid per lane exactly like the card pays per engine replica). Throws
  /// cdsflow::Error on an empty book or invalid options.
  SweepRuntime(cds::TermStructure interest, cds::TermStructure hazard,
               std::span<const cds::CdsOption> options,
               SweepRuntimeConfig config = {});

  ~SweepRuntime();

  SweepRuntime(const SweepRuntime&) = delete;
  SweepRuntime& operator=(const SweepRuntime&) = delete;

  /// Sweeps the whole scenario set. An empty set returns an empty run.
  /// One caller at a time: concurrent calls would share the replicas.
  SweepRun run(const cds::ScenarioMatrix& scenarios);

  unsigned lanes() const { return lanes_; }
  const SweepRuntimeConfig& config() const { return config_; }

 private:
  SweepRuntimeConfig config_;
  unsigned lanes_;
  std::vector<cds::SweepPricer> pricers_;
  /// Lanes 1.. (lane 0 is the caller, see run_lanes): one pool of lanes - 1
  /// threads, held for the runtime's lifetime; null with one lane.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace cdsflow::runtime
