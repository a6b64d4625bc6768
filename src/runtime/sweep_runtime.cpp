#include "runtime/sweep_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "runtime/shard.hpp"
#include "runtime/thread_pool.hpp"

namespace cdsflow::runtime {

SweepRuntime::SweepRuntime(cds::TermStructure interest,
                           cds::TermStructure hazard,
                           std::span<const cds::CdsOption> options,
                           SweepRuntimeConfig config)
    : config_(config) {
  lanes_ = config_.workers != 0
               ? config_.workers
               : std::max(1u, std::thread::hardware_concurrency());
  pricers_.reserve(lanes_);
  for (unsigned i = 0; i < lanes_; ++i) {
    pricers_.emplace_back(interest, hazard, options, config_.level);
  }
  if (lanes_ > 1) pool_ = std::make_unique<ThreadPool>(lanes_ - 1);
}

SweepRuntime::~SweepRuntime() = default;

SweepRun SweepRuntime::run(const cds::ScenarioMatrix& scenarios) {
  SweepRun out;
  out.lanes = lanes_;
  if (config_.shard_size != 0) {
    out.shard_size = config_.shard_size;
  } else {
    // Whole lane groups per shard: padding a partial group costs a full
    // group's work and moves no bits (every op in the group is lane-wise).
    const std::size_t w = cds::simd::lanes(pricers_.front().kernel_level());
    out.shard_size = (auto_shard_size(scenarios.count, lanes_) + w - 1) / w * w;
  }
  if (scenarios.count == 0) return out;

  const auto plan = plan_shards(scenarios.count, out.shard_size);
  out.aggregates.resize(scenarios.count);
  std::vector<cds::SweepStats> shard_stats(plan.size());
  std::vector<double> shard_seconds(plan.size(), 0.0);

  // Each shard writes a disjoint slice of `aggregates` (its own scenario
  // range), so the output is in submission order by construction and no
  // merge reordering is ever needed.
  const auto run_shard = [&](const Shard& shard, cds::SweepPricer& pricer) {
    const auto s0 = std::chrono::steady_clock::now();
    shard_stats[shard.index] = pricer.sweep(
        scenarios, shard.begin, shard.end,
        std::span<cds::ScenarioAggregate>(out.aggregates)
            .subspan(shard.begin, shard.size()));
    shard_seconds[shard.index] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - s0)
            .count();
  };

  const auto t0 = std::chrono::steady_clock::now();
  // Lane l sweeps with replica l; shards go to whichever lane is free next.
  run_lanes(pool_.get(), lanes_, plan.size(),
            [this, &plan, &run_shard](std::size_t i, unsigned lane) {
              run_shard(plan[i], pricers_[lane]);
            });
  const auto t1 = std::chrono::steady_clock::now();

  // Stats and accounting merge in shard (= submission) order.
  out.shards.reserve(plan.size());
  std::vector<double> task_seconds;
  task_seconds.reserve(plan.size());
  for (const auto& shard : plan) {
    out.stats.merge(shard_stats[shard.index]);
    out.shards.push_back({shard.index, shard.begin, shard.end,
                          shard_seconds[shard.index], /*lane=*/0});
    task_seconds.push_back(shard_seconds[shard.index]);
  }
  std::vector<unsigned> lane_of;
  out.modelled_seconds = list_schedule_makespan(task_seconds, lanes_, &lane_of);
  for (std::size_t i = 0; i < out.shards.size(); ++i) {
    out.shards[i].lane = lane_of[i];
  }
  if (out.modelled_seconds > 0.0) {
    out.modelled_scenarios_per_second =
        static_cast<double>(scenarios.count) / out.modelled_seconds;
  }
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  if (out.wall_seconds > 0.0) {
    out.wall_scenarios_per_second =
        static_cast<double>(scenarios.count) / out.wall_seconds;
  }
  return out;
}

}  // namespace cdsflow::runtime
