#include "cds/stream_pricer.hpp"

#include <bit>
#include <cmath>
#include <utility>

#include "cds/schedule.hpp"
#include "common/error.hpp"

namespace cdsflow::cds {

StreamPricer::StreamPricer(TermStructure interest, TermStructure hazard,
                           StreamPricerConfig config)
    : interest_(std::move(interest)),
      hazard_(std::move(hazard)),
      hazard_prefix_(make_hazard_prefix(hazard_)),
      config_(std::move(config)),
      tables_(simd::make_curve_tables(interest_, hazard_,
                                      config_.kernel_level)) {
  interest_.validate();
  CDSFLOW_EXPECT(config_.risk_bump > 0.0 && std::isfinite(config_.risk_bump),
                 "sensitivity bump must be positive and finite");
  if (!config_.ladder_edges.empty()) {
    validate_ladder_edges(config_.ladder_edges);
  }
  risk_config_.bump = config_.risk_bump;
  risk_config_.ladder_edges = config_.ladder_edges;
}

void StreamPricer::tabulate(std::size_t g, bool refresh_discount) {
  const std::size_t offset = grids_.grid_offset[g];
  const std::size_t n_points = grid_points_[g];
  const detail::GridSums sums = detail::tabulate_grid(
      interest_, hazard_prefix_, *tables_,
      std::span<const TimePoint>(grids_.points).subspan(offset, n_points),
      std::span<double>(grids_.discount).subspan(offset, n_points),
      std::span<double>(grids_.survival).subspan(offset, n_points),
      std::span<double>(grids_.default_mass).subspan(offset, n_points),
      refresh_discount, config_.kernel_level);
  grids_.grid_annuity[g] = sums.annuity;
  grids_.grid_payoff[g] = sums.payoff;
}

void StreamPricer::price(std::span<const CdsOption> options,
                         std::span<SpreadResult> out) {
  CDSFLOW_EXPECT(out.size() == options.size(),
                 "stream price() needs out.size() == options.size()");
  // Pass 1 -- dedup against the *persistent* map: new (maturity, frequency)
  // pairs tabulate a grid that then serves every later batch.
  grids_.grid_of.clear();
  grids_.grid_of.reserve(options.size());
  for (const CdsOption& option : options) {
    option.validate();
    const detail::ScheduleKey key{
        std::bit_cast<std::uint64_t>(option.maturity_years),
        std::bit_cast<std::uint64_t>(option.payment_frequency)};
    const auto next_id = static_cast<std::uint32_t>(grids_.grid_maturity.size());
    const auto [it, inserted] = grids_.dedup.try_emplace(key, next_id);
    if (inserted) {
      grids_.grid_maturity.push_back(option.maturity_years);
      grids_.grid_frequency.push_back(option.payment_frequency);
      CdsOption probe;  // schedule depends only on (maturity, frequency)
      probe.maturity_years = option.maturity_years;
      probe.payment_frequency = option.payment_frequency;
      const std::size_t offset = grids_.points.size();
      grids_.grid_offset.push_back(offset);
      const std::size_t n_points = make_schedule(probe, grids_.points);
      grid_points_.push_back(n_points);
      grids_.discount.resize(offset + n_points);
      grids_.survival.resize(offset + n_points);
      grids_.default_mass.resize(offset + n_points);
      grids_.grid_annuity.push_back(0.0);
      grids_.grid_payoff.push_back(0.0);
      tabulate(next_id, /*refresh_discount=*/true);
    }
    grids_.grid_of.push_back(it->second);
  }

  // Pass 2 -- per option: the same branch-free combine as the batch kernel
  // (vectorised `lanes` at a time under a SIMD level; bit-exact either way,
  // see simd::combine_spreads).
  if (config_.kernel_level != simd::Level::kScalar) {
    simd::combine_spreads(options, grids_.grid_of, grids_.grid_annuity,
                          grids_.grid_payoff, out, config_.kernel_level);
  } else {
    const double* annuity = grids_.grid_annuity.data();
    const double* payoff = grids_.grid_payoff.data();
    for (std::size_t i = 0; i < options.size(); ++i) {
      const std::uint32_t g = grids_.grid_of[i];
      const double protection = (1.0 - options[i].recovery_rate) * payoff[g];
      out[i] = {options[i].id, kBasisPointsPerUnit * protection / annuity[g]};
    }
  }

  stats_.options_priced += options.size();
  stats_.batches += 1;
  stats_.cached_grids = grids_.grid_maturity.size();
  stats_.grid_points = grids_.points.size();
}

void StreamPricer::refresh_risk_pricer() {
  if (!risk_dirty_) return;
  risk_pricer_ = std::make_unique<BatchPricer>(interest_, hazard_,
                                               config_.kernel_level, tables_);
  risk_curves_.emplace(interest_, hazard_, risk_config_);
  risk_dirty_ = false;
}

void StreamPricer::price_with_sensitivities(
    std::span<const CdsOption> options, std::span<SpreadResult> out,
    std::span<Sensitivities> sensitivities, std::span<double> ladder_out) {
  CDSFLOW_EXPECT(config_.risk_mode,
                 "price_with_sensitivities needs a risk-mode stream pricer");
  CDSFLOW_EXPECT(sensitivities.size() == options.size(),
                 "stream risk needs sensitivities.size() == options.size()");
  // Spreads via the incremental grid cache (also registers new grids so
  // spread-path accounting stays exact in mixed streams) ...
  price(options, out);
  // ... Greeks via the batched risk kernel on the current curves. The
  // per-option spread it computes is bit-identical to the combine above, so
  // sensitivities[i].spread_bps == out[i].spread_bps.
  refresh_risk_pricer();
  risk_pricer_->price_with_sensitivities(options, sensitivities, ladder_out,
                                         risk_workspace_, *risk_curves_);
}

std::size_t StreamPricer::update_hazard_quote(std::size_t knot, double rate) {
  CDSFLOW_EXPECT(knot < hazard_.size(),
                 "hazard-quote update knot out of range");
  CDSFLOW_EXPECT(std::isfinite(rate) && rate > 0.0,
                 "hazard-quote update rate must be positive and finite");
  std::vector<double> values = hazard_.values();
  values[knot] = rate;
  hazard_ = TermStructure(hazard_.times(), std::move(values));
  hazard_prefix_ = make_hazard_prefix(hazard_);
  risk_dirty_ = true;

  // Rate h_k applies on (tau_{k-1}, tau_k], so Lambda(t) -- and Q(t) --
  // moved only for t > tau_{k-1}: grids whose maturity (= last schedule
  // point) stays at or below that threshold keep bit-identical columns and
  // sums. knot == 0 moves the very first segment, so everything with t > 0
  // (every schedule point) is affected.
  const double affected_past = knot == 0 ? 0.0 : hazard_.time(knot - 1);
  std::size_t retabulated = 0;
  const std::size_t n_grids = grids_.grid_maturity.size();
  for (std::size_t g = 0; g < n_grids; ++g) {
    if (grids_.grid_maturity[g] > affected_past) {
      tabulate(g, /*refresh_discount=*/false);
      ++retabulated;
    }
  }
  stats_.hazard_updates += 1;
  stats_.grids_retabulated += retabulated;
  stats_.full_rebuild_grids += n_grids;
  return retabulated;
}

}  // namespace cdsflow::cds
