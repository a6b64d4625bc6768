/// \file test_runtime.cpp
/// The sharded portfolio runtime: shard planning, shard-boundary
/// correctness (bit-identical to a single-engine run, including empty and
/// one-option books), determinism across worker counts, and the modelled
/// multi-lane scaling.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "engines/registry.hpp"
#include "runtime/portfolio_runtime.hpp"
#include "runtime/shard.hpp"
#include "runtime/thread_pool.hpp"
#include "workload/scenario.hpp"

namespace cdsflow {
namespace {

TEST(ShardPlan, ExactDivision) {
  const auto plan = runtime::plan_shards(12, 4);
  ASSERT_EQ(plan.size(), 3u);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].index, i);
    EXPECT_EQ(plan[i].begin, i * 4);
    EXPECT_EQ(plan[i].end, (i + 1) * 4);
    EXPECT_EQ(plan[i].size(), 4u);
  }
}

TEST(ShardPlan, RemainderGoesToLastShard) {
  const auto plan = runtime::plan_shards(10, 4);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[2].begin, 8u);
  EXPECT_EQ(plan[2].end, 10u);
  EXPECT_EQ(plan[2].size(), 2u);
}

TEST(ShardPlan, EmptyAndDegenerate) {
  EXPECT_TRUE(runtime::plan_shards(0, 4).empty());
  const auto one = runtime::plan_shards(1, 100);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].size(), 1u);
  EXPECT_THROW(runtime::plan_shards(5, 0), Error);
}

TEST(ShardPlan, AutoShardSizeOversubscribes) {
  // ~4 shards per worker, never zero.
  EXPECT_EQ(runtime::auto_shard_size(1600, 4), 100u);
  EXPECT_EQ(runtime::auto_shard_size(3, 8), 1u);
  EXPECT_EQ(runtime::auto_shard_size(0, 4), 1u);
  EXPECT_THROW(runtime::auto_shard_size(100, 0), Error);
}

TEST(ShardPlan, SetupAwareShardSizeAmortisesSetup) {
  // No setup cost: identical to the load-balanced default.
  EXPECT_EQ(runtime::setup_aware_shard_size(1600, 4, 0.0, 1e-3),
            runtime::auto_shard_size(1600, 4));
  // 0.5 s setup at 10 us/option and 10% tolerated overhead needs 500k
  // options per shard -- more than one lane's worth, so cap at n/workers.
  EXPECT_EQ(runtime::setup_aware_shard_size(100'000, 4, 0.5, 1e-5, 0.1),
            25'000u);
  // Mild setup grows the shard just enough: 1 ms setup at 1 ms/option and
  // 10% overhead -> 10 options per shard, above the balanced 7 (100/16).
  EXPECT_EQ(runtime::setup_aware_shard_size(100, 4, 1e-3, 1e-3, 0.1), 10u);
  // Already-amortised setup keeps the balanced size.
  EXPECT_EQ(runtime::setup_aware_shard_size(1600, 4, 1e-6, 1e-3, 0.1),
            runtime::auto_shard_size(1600, 4));
  EXPECT_THROW(runtime::setup_aware_shard_size(100, 0, 0.1, 1e-3), Error);
  EXPECT_THROW(runtime::setup_aware_shard_size(100, 4, 0.1, 0.0), Error);
  EXPECT_THROW(runtime::setup_aware_shard_size(100, 4, 0.1, 1e-3, 0.0),
               Error);
}

TEST(ThreadPool, RunsAllTasksAndPropagatesExceptions) {
  runtime::ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  auto failing = pool.submit([] { throw Error("boom"); });
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 20);
  EXPECT_THROW(failing.get(), Error);
}

TEST(ThreadPool, LateSubmitFailsFastAfterStop) {
  runtime::ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  pool.stop();
  // Everything accepted before stop ran to completion...
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 8);
  // ... and a submit racing (or trailing) the shutdown throws instead of
  // enqueueing a task no worker will ever run.
  EXPECT_THROW(pool.submit([&counter] { ++counter; }), Error);
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, StopIsIdempotent) {
  runtime::ThreadPool pool(2);
  pool.submit([] {}).get();
  pool.stop();
  pool.stop();  // second stop (and the destructor's) must be a no-op
  EXPECT_THROW(pool.submit([] {}), Error);
}

TEST(RunLanes, EveryIndexRunsOnceAndTheCallerIsLaneZero) {
  runtime::ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  for (const unsigned lanes : {1u, 2u, 3u}) {
    for (const std::size_t n : {0u, 1u, 2u, 17u}) {
      std::vector<std::atomic<int>> runs(n);
      std::vector<unsigned> lane_of(n, 99);
      std::atomic<bool> lane0_elsewhere{false};
      runtime::run_lanes(lanes == 1 ? nullptr : &pool, lanes, n,
                         [&](std::size_t i, unsigned lane) {
                           ++runs[i];
                           lane_of[i] = lane;
                           if (lane == 0 &&
                               std::this_thread::get_id() != caller) {
                             lane0_elsewhere = true;
                           }
                         });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "lanes " << lanes << " index " << i;
        EXPECT_LT(lane_of[i], lanes);
      }
      EXPECT_FALSE(lane0_elsewhere.load());
    }
  }
}

TEST(RunLanes, WaitsForEveryLaneThenRethrowsTheLowestFailure) {
  runtime::ThreadPool pool(2);
  std::atomic<int> finished{0};
  try {
    runtime::run_lanes(&pool, 3, 12, [&](std::size_t i, unsigned) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++finished;
      if (i == 5 || i == 9) throw Error("shard " + std::to_string(i));
    });
    FAIL() << "expected the shard failure";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("shard 5"), std::string::npos)
        << e.what();
  }
  // No shard of the call was still running when the failure surfaced.
  EXPECT_EQ(finished.load(), 12);
  EXPECT_THROW(runtime::run_lanes(&pool, 4, 8, [](std::size_t, unsigned) {}),
               Error)
      << "a lane without a pool worker must be refused";
}

/// Bit-identical: sharded pricing must merge to exactly the bytes the
/// single-engine baseline produces, in submission order.
void expect_identical(const std::vector<cds::SpreadResult>& got,
                      const std::vector<cds::SpreadResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "at " << i;
    EXPECT_EQ(got[i].spread_bps, want[i].spread_bps) << "at " << i;
  }
}

TEST(PortfolioRuntime, MatchesSingleEngineAcrossShardBoundaries) {
  const auto scenario = workload::smoke_scenario(53, 11);
  for (const auto* name : {"cpu", "dataflow", "vectorised"}) {
    SCOPED_TRACE(name);
    auto single = engine::make_engine(name, scenario.interest,
                                      scenario.hazard);
    const auto baseline = single->price(scenario.options);

    runtime::RuntimeConfig cfg;
    cfg.engine = name;
    cfg.workers = 3;
    cfg.shard_size = 7;  // 53 = 7*7 + 4: exercises a ragged final shard
    runtime::PortfolioRuntime rt(scenario.interest, scenario.hazard, cfg);
    const auto run = rt.price(scenario.options);

    expect_identical(run.run.results, baseline.results);
    EXPECT_EQ(run.shards.size(), 8u);
    EXPECT_EQ(run.lanes, 3u);
    EXPECT_GT(run.run.options_per_second, 0.0);
    EXPECT_GT(run.wall_seconds, 0.0);
  }
}

TEST(PortfolioRuntime, EmptyPortfolio) {
  const auto scenario = workload::smoke_scenario(1, 5);
  runtime::RuntimeConfig cfg;
  cfg.workers = 4;
  runtime::PortfolioRuntime rt(scenario.interest, scenario.hazard, cfg);
  const auto run = rt.price({});
  EXPECT_TRUE(run.run.results.empty());
  EXPECT_TRUE(run.shards.empty());
  EXPECT_EQ(run.run.options_per_second, 0.0);
  EXPECT_EQ(run.run.total_seconds, 0.0);
}

TEST(PortfolioRuntime, SingleOptionPortfolio) {
  const auto scenario = workload::smoke_scenario(1, 5);
  auto single = engine::make_engine("vectorised", scenario.interest,
                                    scenario.hazard);
  const auto baseline = single->price(scenario.options);

  runtime::RuntimeConfig cfg;
  cfg.engine = "vectorised";
  cfg.workers = 4;
  runtime::PortfolioRuntime rt(scenario.interest, scenario.hazard, cfg);
  const auto run = rt.price(scenario.options);
  ASSERT_EQ(run.shards.size(), 1u);
  expect_identical(run.run.results, baseline.results);
}

TEST(PortfolioRuntime, DeterministicAcrossWorkerCounts) {
  const auto scenario = workload::smoke_scenario(41, 23);
  std::vector<cds::SpreadResult> reference;
  for (const unsigned workers : {1u, 2u, 5u}) {
    SCOPED_TRACE(workers);
    runtime::RuntimeConfig cfg;
    cfg.engine = "vectorised";
    cfg.workers = workers;
    cfg.shard_size = 6;  // hold the plan fixed while the lane count varies
    runtime::PortfolioRuntime rt(scenario.interest, scenario.hazard, cfg);
    const auto run = rt.price(scenario.options);
    if (reference.empty()) {
      reference = run.run.results;
    } else {
      expect_identical(run.run.results, reference);
    }
  }
}

TEST(PortfolioRuntime, ModelledMakespanScalesWithLanes) {
  // Simulated engine => deterministic per-shard times: one lane prices
  // shards back to back, four lanes overlap them.
  const auto scenario = workload::smoke_scenario(64, 3);
  auto run_with = [&](unsigned workers) {
    runtime::RuntimeConfig cfg;
    cfg.engine = "vectorised";
    cfg.workers = workers;
    cfg.shard_size = 4;
    runtime::PortfolioRuntime rt(scenario.interest, scenario.hazard, cfg);
    return rt.price(scenario.options);
  };
  const auto one = run_with(1);
  const auto four = run_with(4);
  expect_identical(four.run.results, one.run.results);
  EXPECT_GT(one.run.total_seconds, four.run.total_seconds * 1.5);
  // Total simulated work is lane-count independent.
  EXPECT_EQ(one.run.kernel_cycles, four.run.kernel_cycles);
}

TEST(PortfolioRuntime, EngineReplicasCapConcurrency) {
  const auto scenario = workload::smoke_scenario(8, 2);
  runtime::RuntimeConfig cfg;
  cfg.workers = 8;
  cfg.engine_replicas = 2;
  runtime::PortfolioRuntime rt(scenario.interest, scenario.hazard, cfg);
  EXPECT_EQ(rt.lanes(), 2u);
  const auto run = rt.price(scenario.options);
  for (const auto& shard : run.shards) EXPECT_LT(shard.lane, 2u);
}

TEST(PortfolioRuntime, RejectsUnknownEngine) {
  const auto scenario = workload::smoke_scenario(4, 2);
  runtime::RuntimeConfig cfg;
  cfg.engine = "warp-drive";
  EXPECT_THROW(
      runtime::PortfolioRuntime(scenario.interest, scenario.hazard, cfg),
      Error);
}

}  // namespace
}  // namespace cdsflow
