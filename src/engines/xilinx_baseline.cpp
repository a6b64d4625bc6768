#include "engines/xilinx_baseline.hpp"

#include "cds/schedule.hpp"
#include "common/error.hpp"
#include "hls/dataflow.hpp"

namespace cdsflow::engine {

XilinxBaselineEngine::XilinxBaselineEngine(cds::TermStructure interest,
                                           cds::TermStructure hazard,
                                           FpgaEngineConfig config)
    : config_(config),
      pricer_(std::move(interest), std::move(hazard),
              cds::simd::Level::kScalar) {}

std::vector<XilinxBaselineEngine::StageSpan>
XilinxBaselineEngine::option_stage_spans(const cds::CdsOption& option) const {
  const auto& cost = config_.cost;
  const auto schedule = cds::make_schedule(option);
  const auto T = static_cast<sim::Cycle>(schedule.size());
  const auto R = static_cast<sim::Cycle>(pricer_.interest().size());
  const sim::Cycle lo = cost.loop_overhead_cycles;

  // Hazard scans: for every time point the library re-accumulates the
  // constant data up to t at II=7 (the paper's central bottleneck).
  const cds::TermStructure& hazard = pricer_.hazard();
  sim::Cycle hazard_scan = 0;
  for (const auto& tp : schedule) {
    const auto len =
        static_cast<sim::Cycle>(hazard.count_at_or_before(tp.t)) + 1;
    hazard_scan += len * cost.baseline_accumulation_ii + cost.dexp_latency;
  }

  std::vector<StageSpan> spans;
  spans.push_back({"load_option", 10});
  spans.push_back({"time_points", lo + T + 4});
  spans.push_back({"default_probability", lo + hazard_scan});
  // Payment and payoff loops each re-interpolate the discount rate with a
  // full bracket scan per time point (the dataflow rewrite computes the
  // discount once and streams it).
  const sim::Cycle interp_pass =
      lo + T * (R * cost.interpolation_scan_ii + cost.ddiv_latency +
                cost.dexp_latency + 2 * cost.dmul_latency);
  spans.push_back({"payment_pv", interp_pass});
  spans.push_back({"payoff_pv", interp_pass});
  spans.push_back({"accrual", lo + T + 2 * cost.dmul_latency});
  // Four accumulation loops (premium, accrual, payoff, plus the combined
  // bookkeeping pass), each with the II=7 carried add.
  spans.push_back(
      {"accumulate", 4 * (lo + T * cost.baseline_accumulation_ii +
                          cost.dadd_latency)});
  spans.push_back({"combine_spread",
                   cost.ddiv_latency + 2 * cost.dmul_latency + 10});
  return spans;
}

PricingRun XilinxBaselineEngine::price(
    const std::vector<cds::CdsOption>& options) {
  CDSFLOW_EXPECT(!options.empty(), "price() requires options");
  PricingRun run;
  // Values: bit-identical to the golden model (see the file comment).
  run.results.resize(options.size());
  pricer_.price(options, run.results, workspace_);

  // Trace tracks (shared across options so the Fig. 1 bench can show several
  // options back to back).
  std::vector<std::size_t> tracks;
  if (config_.trace != nullptr) {
    for (const auto& span : option_stage_spans(options.front())) {
      tracks.push_back(config_.trace->add_track(span.stage));
    }
  }

  const hls::RegionRunner runner(
      hls::ExecutionPolicy::kSequentialLoops,
      {config_.cost.region_restart_cycles,
       config_.cost.region_initial_start_cycles});

  sim::Cycle trace_clock = 0;
  const auto region = runner.run(options.size(), [&](std::uint64_t i) {
    // Cycles: sum of the sequential loop spans.
    sim::Cycle total = 0;
    const auto spans = option_stage_spans(options[i]);
    for (std::size_t s = 0; s < spans.size(); ++s) {
      if (config_.trace != nullptr) {
        config_.trace->record(tracks[s], trace_clock + total,
                              trace_clock + total + spans[s].cycles);
      }
      total += spans[s].cycles;
    }
    trace_clock += total + config_.cost.region_restart_cycles;
    return total;
  });

  run.kernel_cycles = region.total_cycles;
  run.invocations = region.invocations;
  run.kernel_seconds =
      static_cast<double>(run.kernel_cycles) / config_.clock_hz();
  if (config_.include_transfer) {
    const fpga::Interconnect pcie(config_.interconnect);
    const BatchTraffic traffic =
        batch_traffic(pricer_.interest().size(), options.size());
    run.transfer_seconds = pcie.transfer_seconds(traffic.total());
  }
  run.finalise(options.size());
  return run;
}

}  // namespace cdsflow::engine
