#include "runtime/portfolio_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "engines/registry.hpp"
#include "runtime/shard.hpp"
#include "runtime/thread_pool.hpp"

namespace cdsflow::runtime {

namespace {

/// Deterministic list schedule: shards in submission order, each onto the
/// earliest-free lane (list_schedule_makespan, shared with the streaming
/// runtime). Returns the makespan and writes lane assignments.
double schedule_lanes(std::vector<ShardOutcome>& shards, unsigned lanes) {
  std::vector<double> task_seconds;
  task_seconds.reserve(shards.size());
  for (const auto& shard : shards) task_seconds.push_back(shard.engine_seconds);
  std::vector<unsigned> lane_of;
  const double makespan = list_schedule_makespan(task_seconds, lanes, &lane_of);
  for (std::size_t i = 0; i < shards.size(); ++i) shards[i].lane = lane_of[i];
  return makespan;
}

}  // namespace

PortfolioRuntime::PortfolioRuntime(cds::TermStructure interest,
                                   cds::TermStructure hazard,
                                   RuntimeConfig config)
    : config_(std::move(config)) {
  unsigned workers = config_.workers;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  lanes_ = config_.engine_replicas == 0
               ? workers
               : std::min(workers, config_.engine_replicas);
  CDSFLOW_EXPECT(lanes_ > 0, "runtime needs at least one lane");
  engines_.reserve(lanes_);
  for (unsigned i = 0; i < lanes_; ++i) {
    engines_.push_back(engine::make_engine(config_.engine, interest, hazard,
                                           config_.fpga, config_.cpu));
  }
  if (lanes_ > 1) pool_ = std::make_unique<ThreadPool>(lanes_ - 1);
}

PortfolioRuntime::~PortfolioRuntime() = default;

std::string PortfolioRuntime::worker_description() const {
  return engines_.front()->description();
}

RuntimeRun PortfolioRuntime::price(const std::vector<cds::CdsOption>& options) {
  RuntimeRun out;
  out.lanes = lanes_;
  out.shard_size = config_.shard_size != 0
                       ? config_.shard_size
                       : auto_shard_size(options.size(), lanes_);
  if (options.empty()) return out;

  const auto plan = plan_shards(options.size(), out.shard_size);
  std::vector<engine::PricingRun> shard_runs(plan.size());

  const auto t0 = std::chrono::steady_clock::now();
  // Lane l prices with replica l; shards go to whichever lane is free next.
  run_lanes(pool_.get(), lanes_, plan.size(),
            [this, &options, &plan, &shard_runs](std::size_t i, unsigned lane) {
              const Shard& shard = plan[i];
              const std::vector<cds::CdsOption> slice(
                  options.begin() + shard.begin, options.begin() + shard.end);
              shard_runs[i] = engines_[lane]->price(slice);
            });
  const auto t1 = std::chrono::steady_clock::now();

  // Deterministic merge in shard (= submission) order. Risk-mode engines
  // carry sensitivities and ladder rows next to the spreads; concatenating
  // all three in the same order keeps the merged run bit-identical to a
  // single-engine run.
  out.run.results.reserve(options.size());
  out.shards.reserve(plan.size());
  for (const auto& shard : plan) {
    const auto& run = shard_runs[shard.index];
    CDSFLOW_ASSERT(run.results.size() == shard.size(),
                   "shard result count mismatch");
    out.run.results.insert(out.run.results.end(), run.results.begin(),
                           run.results.end());
    if (!run.sensitivities.empty()) {
      CDSFLOW_ASSERT(run.sensitivities.size() == shard.size(),
                     "shard sensitivity count mismatch");
      out.run.sensitivities.insert(out.run.sensitivities.end(),
                                   run.sensitivities.begin(),
                                   run.sensitivities.end());
      CDSFLOW_ASSERT(run.cs01_ladder.size() ==
                         shard.size() * run.ladder_buckets,
                     "shard ladder size mismatch");
      out.run.ladder_buckets = run.ladder_buckets;
      out.run.cs01_ladder.insert(out.run.cs01_ladder.end(),
                                 run.cs01_ladder.begin(),
                                 run.cs01_ladder.end());
    }
    out.run.kernel_cycles += run.kernel_cycles;
    out.run.kernel_seconds += run.kernel_seconds;
    out.run.transfer_seconds += run.transfer_seconds;
    out.run.invocations += run.invocations;
    out.shards.push_back({shard.index, shard.begin, shard.end,
                          run.total_seconds, run.kernel_cycles,
                          run.invocations, /*lane=*/0});
  }

  out.run.total_seconds = schedule_lanes(out.shards, lanes_);
  CDSFLOW_ASSERT(out.run.total_seconds > 0.0,
                 "merged run must take non-zero time");
  out.run.options_per_second =
      static_cast<double>(options.size()) / out.run.total_seconds;

  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  if (out.wall_seconds > 0.0) {
    out.wall_options_per_second =
        static_cast<double>(options.size()) / out.wall_seconds;
  }
  return out;
}

}  // namespace cdsflow::runtime
