#include "engines/stage_library.hpp"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cds/hazard.hpp"
#include "cds/legs.hpp"
#include "cds/schedule.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "hls/stream.hpp"

namespace cdsflow::engine {

namespace {

using hls::BroadcastStage;
using hls::ExpandStage;
using hls::MapStage;
using hls::ReduceStage;
using hls::SinkStage;
using hls::SourceStage;
using hls::StageTiming;
using hls::ZipStage;
using sim::Cycle;

/// Asserts two per-time-point streams are in lockstep (the simulator's
/// answer to "did I wire the HLS streams correctly").
void check_lockstep(const TimePointToken& a, const TimePointToken& b,
                    const char* where) {
  CDSFLOW_ASSERT(a.option_id == b.option_id && a.index == b.index,
                 std::string("stream desynchronisation in ") + where);
}

std::vector<OptionToken> make_option_tokens(
    std::span<const cds::CdsOption> options) {
  std::vector<OptionToken> tokens;
  tokens.reserve(options.size());
  for (const auto& opt : options) {
    opt.validate();
    tokens.push_back({opt.id, opt.maturity_years, opt.payment_frequency,
                      opt.recovery_rate,
                      static_cast<std::int32_t>(cds::schedule_size(opt))});
  }
  return tokens;
}

}  // namespace

std::vector<sim::Cycle> GraphHandles::option_latencies() const {
  CDSFLOW_EXPECT(source != nullptr && sink != nullptr,
                 "latencies require a built graph");
  const auto& emitted = source->emission_cycles();
  const auto& arrived = sink->arrival_cycles();
  CDSFLOW_ASSERT(emitted.size() == arrived.size(),
                 "latency accounting requires one result per option");
  std::vector<sim::Cycle> latencies(emitted.size());
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    CDSFLOW_ASSERT(arrived[i] >= emitted[i],
                   "result cannot precede its option");
    latencies[i] = arrived[i] - emitted[i];
  }
  return latencies;
}

LatencyStats latency_stats(const std::vector<sim::Cycle>& latencies) {
  CDSFLOW_EXPECT(!latencies.empty(), "latency stats require samples");
  std::vector<double> xs(latencies.begin(), latencies.end());
  LatencyStats stats;
  stats.p50 = percentile(xs, 50.0);
  stats.p95 = percentile(xs, 95.0);
  stats.p99 = percentile(xs, 99.0);
  stats.max = percentile(xs, 100.0);
  double sum = 0.0;
  for (const double x : xs) sum += x;
  stats.mean = sum / static_cast<double>(xs.size());
  return stats;
}

GraphHandles build_cds_dataflow_graph(sim::Simulation& sim,
                                      const cds::TermStructure& interest,
                                      const cds::TermStructure& hazard,
                                      std::span<const cds::CdsOption> options,
                                      const FpgaEngineConfig& config,
                                      GraphVariant variant) {
  CDSFLOW_EXPECT(!options.empty(), "graph requires at least one option");
  interest.validate();
  hazard.validate();

  const auto& cost = config.cost;
  const std::uint64_t n_options = options.size();
  std::uint64_t total_tp = 0;
  for (const auto& opt : options) total_tp += cds::schedule_size(opt);

  GraphHandles handles;
  handles.total_time_points = total_tp;
  sim::Trace* trace = config.trace;

  const std::size_t tp_depth = config.tp_stream_depth;
  const std::size_t opt_depth = config.option_stream_depth;

  // --- streams -------------------------------------------------------------
  auto& s_options = hls::make_stream<OptionToken>(sim, "options", opt_depth);
  auto& s_opt_to_tpgen =
      hls::make_stream<OptionToken>(sim, "options.tpgen", opt_depth);
  auto& s_opt_to_combine =
      hls::make_stream<OptionToken>(sim, "options.combine", opt_depth);
  auto& s_tp = hls::make_stream<TimePointToken>(sim, "timepoints", tp_depth);
  auto& s_tp_hazard =
      hls::make_stream<TimePointToken>(sim, "tp.hazard", tp_depth);
  auto& s_tp_rate = hls::make_stream<TimePointToken>(sim, "tp.rate", tp_depth);
  auto& s_lambda = hls::make_stream<HazardToken>(sim, "lambda", tp_depth);
  auto& s_survival =
      hls::make_stream<SurvivalToken>(sim, "survival", tp_depth);
  auto& s_sv_premium =
      hls::make_stream<SurvivalToken>(sim, "survival.premium", tp_depth);
  auto& s_sv_payoff =
      hls::make_stream<SurvivalToken>(sim, "survival.payoff", tp_depth);
  auto& s_sv_accrual =
      hls::make_stream<SurvivalToken>(sim, "survival.accrual", tp_depth);
  auto& s_rate = hls::make_stream<RateToken>(sim, "rate", tp_depth);
  auto& s_discount =
      hls::make_stream<DiscountToken>(sim, "discount", tp_depth);
  auto& s_d_premium =
      hls::make_stream<DiscountToken>(sim, "discount.premium", tp_depth);
  auto& s_d_payoff =
      hls::make_stream<DiscountToken>(sim, "discount.payoff", tp_depth);
  auto& s_d_accrual =
      hls::make_stream<DiscountToken>(sim, "discount.accrual", tp_depth);
  auto& s_premium_terms =
      hls::make_stream<TermsToken>(sim, "terms.premium", tp_depth);
  auto& s_payoff_terms =
      hls::make_stream<TermsToken>(sim, "terms.payoff", tp_depth);
  auto& s_accrual_terms =
      hls::make_stream<TermsToken>(sim, "terms.accrual", tp_depth);
  auto& s_premium_sum =
      hls::make_stream<LegSumToken>(sim, "legsum.premium", opt_depth);
  auto& s_payoff_sum =
      hls::make_stream<LegSumToken>(sim, "legsum.payoff", opt_depth);
  auto& s_accrual_sum =
      hls::make_stream<LegSumToken>(sim, "legsum.accrual", opt_depth);
  auto& s_spread =
      hls::make_stream<cds::SpreadResult>(sim, "spreads", opt_depth);

  // --- option source + fan-out ----------------------------------------------
  // Options stream from HBM packed in 512-bit words; one token per cycle is
  // well below the port's capability. A custom arrival pace (streaming
  // quote scenarios) overrides the back-to-back default.
  handles.source = &sim.add_process<SourceStage<OptionToken>>(
      "option_source", s_options, make_option_tokens(options),
      StageTiming{.latency = 1, .ii = 1}, trace,
      config.option_arrival_pace);

  sim.add_process<BroadcastStage<OptionToken>>(
      "option_fanout", s_options,
      std::vector<sim::Channel<OptionToken>*>{&s_opt_to_tpgen,
                                              &s_opt_to_combine},
      StageTiming{.latency = 1, .ii = 1}, n_options, trace);

  // --- time-point generation (expand) ---------------------------------------
  sim.add_process<ExpandStage<OptionToken, TimePointToken>>(
      "timepoint_gen", s_opt_to_tpgen, s_tp,
      [](const OptionToken& opt) {
        const cds::CdsOption o{opt.id, opt.maturity, opt.frequency,
                               opt.recovery};
        const auto schedule = cds::make_schedule(o);
        std::vector<TimePointToken> tps;
        tps.reserve(schedule.size());
        for (std::size_t i = 0; i < schedule.size(); ++i) {
          tps.push_back({opt.id, static_cast<std::int32_t>(i),
                         static_cast<std::int32_t>(schedule.size()),
                         schedule[i].t, schedule[i].dt});
        }
        return tps;
      },
      StageTiming{.latency = 6, .ii = 1}, n_options, trace);

  sim.add_process<BroadcastStage<TimePointToken>>(
      "tp_fanout", s_tp,
      std::vector<sim::Channel<TimePointToken>*>{&s_tp_hazard, &s_tp_rate},
      StageTiming{.latency = 1, .ii = 1}, total_tp, trace);

  // --- hazard integration (paper Listing 1 applied: II=1 scan) --------------
  // Occupancy: one scan element per cycle over the knots at or before t,
  // plus the partial-lane fold epilogue and loop entry overhead. The work
  // function charges those cycles; the kernel computes the value in the
  // Listing-1 summation order over the same knots (cds/hazard.hpp).
  const Cycle acc_ii = cost.optimised_accumulation_ii;
  const Cycle epilogue = cost.listing1_epilogue_cycles;
  const Cycle loop_oh = cost.loop_overhead_cycles;
  const unsigned l1_lanes = cost.listing1_lanes;
  auto hazard_work = [&hazard, acc_ii, epilogue, loop_oh](
                         const TimePointToken& tp) -> Cycle {
    const auto len =
        static_cast<Cycle>(hazard.count_at_or_before(tp.t)) + 1;
    return len * acc_ii + epilogue + loop_oh;
  };
  auto hazard_kernel = [&hazard, l1_lanes](const TimePointToken& tp) {
    return HazardToken{tp,
                       cds::integrated_hazard_listing1(hazard, tp.t, l1_lanes)};
  };
  // Feed requirement for the vectorised pool's round-robin scheduler: the
  // hazard knots streamed from the dual-ported URAM replicas.
  auto hazard_feed = [&hazard](const TimePointToken& tp) {
    return static_cast<double>(hazard.count_at_or_before(tp.t)) + 1.0;
  };
  const StageTiming hazard_timing{.latency = cost.dadd_latency, .ii = 1};

  // --- rate interpolation ----------------------------------------------------
  // Fixed-bound bracket scan over the whole interest curve (II=1, no carried
  // dependency) followed by the slope division. The work function charges
  // the full scan's cycles; the kernel locates the same bracket by binary
  // search (interpolate_fast, bit-identical to the scan's interpolate).
  const Cycle interp_scan = static_cast<Cycle>(interest.size()) *
                                cost.interpolation_scan_ii +
                            loop_oh;
  auto interp_work = [interp_scan](const TimePointToken&) -> Cycle {
    return interp_scan;
  };
  auto interp_kernel = [&interest](const TimePointToken& tp) {
    return RateToken{tp, interest.interpolate_fast(tp.t)};
  };
  auto interp_feed = [&interest](const TimePointToken&) {
    return static_cast<double>(interest.size());
  };
  const StageTiming interp_timing{.latency = cost.ddiv_latency + 2, .ii = 1};

  if (variant == GraphVariant::kOptimised) {
    handles.hazard_unit = &sim.add_process<MapStage<TimePointToken, HazardToken>>(
        "hazard_integrate", s_tp_hazard, s_lambda, hazard_kernel,
        hazard_timing, total_tp, trace, hazard_work);
    handles.interp_unit = &sim.add_process<MapStage<TimePointToken, RateToken>>(
        "rate_interp", s_tp_rate, s_rate, interp_kernel, interp_timing,
        total_tp, trace, interp_work);
  } else {
    hls::ReplicationConfig pool;
    pool.lanes = config.vector_lanes;
    pool.feed_elements_per_cycle = cost.uram_feed_elements_per_cycle;
    pool.lane_stream_depth = tp_depth;
    handles.hazard_pool =
        hls::make_replicated_pool<TimePointToken, HazardToken>(
            sim, "hazard", s_tp_hazard, s_lambda, pool,
            [hazard_kernel](std::size_t) {
              return std::function<HazardToken(const TimePointToken&)>(
                  hazard_kernel);
            },
            hazard_work, hazard_feed, hazard_timing, total_tp, trace);
    handles.interp_pool = hls::make_replicated_pool<TimePointToken, RateToken>(
        sim, "interp", s_tp_rate, s_rate, pool,
        [interp_kernel](std::size_t) {
          return std::function<RateToken(const TimePointToken&)>(
              interp_kernel);
        },
        interp_work, interp_feed, interp_timing, total_tp, trace);
  }

  // --- defaulting probability ------------------------------------------------
  // Sequential, ordered consumer of the hazard results (in the vectorised
  // engine this is the stage that "receives results cyclically", Fig. 3).
  // Carries Q(t_{i-1}) across a single option's time points.
  {
    auto q_prev = std::make_shared<double>(1.0);
    sim.add_process<MapStage<HazardToken, SurvivalToken>>(
        "default_prob", s_lambda, s_survival,
        [q_prev](const HazardToken& h) {
          if (h.tp.first()) *q_prev = 1.0;
          const double q = std::exp(-h.lambda);
          const double dq = *q_prev - q;
          *q_prev = q;
          return SurvivalToken{h.tp, q, dq};
        },
        StageTiming{.latency = cost.dexp_latency + 1, .ii = 1}, total_tp,
        trace);
  }

  sim.add_process<BroadcastStage<SurvivalToken>>(
      "survival_fanout", s_survival,
      std::vector<sim::Channel<SurvivalToken>*>{&s_sv_premium, &s_sv_payoff,
                                                &s_sv_accrual},
      StageTiming{.latency = 1, .ii = 1}, total_tp, trace);

  // --- discount factor --------------------------------------------------------
  sim.add_process<MapStage<RateToken, DiscountToken>>(
      "discount", s_rate, s_discount,
      [](const RateToken& r) {
        return DiscountToken{r.tp, std::exp(-r.r * r.tp.t)};
      },
      StageTiming{.latency = cost.dexp_latency + cost.dmul_latency, .ii = 1},
      total_tp, trace);

  sim.add_process<BroadcastStage<DiscountToken>>(
      "discount_fanout", s_discount,
      std::vector<sim::Channel<DiscountToken>*>{&s_d_premium, &s_d_payoff,
                                                &s_d_accrual},
      StageTiming{.latency = 1, .ii = 1}, total_tp, trace);

  // --- per-time-point leg terms (zips) ----------------------------------------
  sim.add_process<ZipStage<TermsToken, SurvivalToken, DiscountToken>>(
      "premium_calc",
      std::make_tuple(&s_sv_premium, &s_d_premium), s_premium_terms,
      [](const SurvivalToken& s, const DiscountToken& d) {
        check_lockstep(s.tp, d.tp, "premium_calc");
        return TermsToken{s.tp, d.d * s.q * s.tp.dt};
      },
      StageTiming{.latency = 2 * cost.dmul_latency, .ii = 1}, total_tp, trace);

  sim.add_process<ZipStage<TermsToken, SurvivalToken, DiscountToken>>(
      "payoff_calc", std::make_tuple(&s_sv_payoff, &s_d_payoff),
      s_payoff_terms,
      [](const SurvivalToken& s, const DiscountToken& d) {
        check_lockstep(s.tp, d.tp, "payoff_calc");
        return TermsToken{s.tp, d.d * s.dq};
      },
      StageTiming{.latency = cost.dmul_latency, .ii = 1}, total_tp, trace);

  sim.add_process<ZipStage<TermsToken, SurvivalToken, DiscountToken>>(
      "accrual_calc", std::make_tuple(&s_sv_accrual, &s_d_accrual),
      s_accrual_terms,
      [](const SurvivalToken& s, const DiscountToken& d) {
        check_lockstep(s.tp, d.tp, "accrual_calc");
        return TermsToken{s.tp, 0.5 * d.d * s.dq * s.tp.dt};
      },
      StageTiming{.latency = 2 * cost.dmul_latency, .ii = 1}, total_tp, trace);

  // --- per-option accumulators (reduce) ----------------------------------------
  // In-order accumulation; the Listing-1 partial lanes make these II=1 on
  // hardware, and with ~tens of tokens per option the fold epilogue is
  // negligible (paper: these stages "can generate a result per cycle").
  auto add_reduce = [&](const char* name, sim::Channel<TermsToken>& in,
                        sim::Channel<LegSumToken>& out) {
    auto acc = std::make_shared<double>(0.0);
    auto current = std::make_shared<std::int32_t>(0);
    sim.add_process<ReduceStage<TermsToken, LegSumToken>>(
        name, in, out,
        [acc, current](const TermsToken& t) {
          if (t.tp.first()) {
            *acc = 0.0;
            *current = t.tp.option_id;
          }
          CDSFLOW_ASSERT(*current == t.tp.option_id,
                         "accumulator received interleaved options");
          *acc += t.value;
        },
        [acc, current]() {
          return LegSumToken{*current, *acc};
        },
        [](const TermsToken& t) { return t.tp.last(); },
        StageTiming{.latency = cost.dadd_latency,
                    .ii = cost.optimised_accumulation_ii},
        total_tp, trace);
  };
  add_reduce("accum_premium", s_premium_terms, s_premium_sum);
  add_reduce("accum_payoff", s_payoff_terms, s_payoff_sum);
  add_reduce("accum_accrual", s_accrual_terms, s_accrual_sum);

  // --- spread combine + sink ----------------------------------------------------
  sim.add_process<
      ZipStage<cds::SpreadResult, OptionToken, LegSumToken, LegSumToken,
               LegSumToken>>(
      "spread_combine",
      std::make_tuple(&s_opt_to_combine, &s_premium_sum, &s_accrual_sum,
                      &s_payoff_sum),
      s_spread,
      [](const OptionToken& opt, const LegSumToken& premium,
         const LegSumToken& accrual, const LegSumToken& payoff) {
        CDSFLOW_ASSERT(opt.id == premium.option_id &&
                           opt.id == accrual.option_id &&
                           opt.id == payoff.option_id,
                       "spread_combine received mismatched option streams");
        return cds::SpreadResult{
            opt.id, cds::combine_spread_bps(premium.value, accrual.value,
                                            payoff.value, opt.recovery)};
      },
      StageTiming{.latency = cost.ddiv_latency + 2 * cost.dmul_latency,
                  .ii = 1},
      n_options, trace);

  handles.sink = &sim.add_process<SinkStage<cds::SpreadResult>>(
      "result_sink", s_spread, n_options, StageTiming{.latency = 1, .ii = 1},
      trace);

  return handles;
}

}  // namespace cdsflow::engine
