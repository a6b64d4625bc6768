#include "cds/batch_pricer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "cds/legs.hpp"
#include "common/error.hpp"

namespace cdsflow::cds {

namespace detail {

LegSums reduce_leg_sums(std::span<const TimePoint> points,
                        std::span<const double> discount,
                        std::span<const double> survival) {
  LegSums sums;
  double q_prev = 1.0;  // Q(0)
  for (std::size_t i = 0; i < points.size(); ++i) {
    const LegTerms terms =
        leg_terms_from_discount(discount[i], q_prev, survival[i], points[i].dt);
    sums.premium += terms.premium;
    sums.accrual += terms.accrual;
    sums.payoff += terms.payoff;
    q_prev = survival[i];
  }
  return sums;
}

GridSums checked_grid_sums(const LegSums& sums) {
  const double annuity = sums.premium + sums.accrual;
  CDSFLOW_EXPECT(annuity > 0.0,
                 "risky annuity must be positive to quote a spread");
  return {annuity, sums.payoff};
}

GridSums tabulate_grid(const TermStructure& interest,
                       const HazardPrefix& hazard_prefix,
                       const simd::CurveTables& tables,
                       std::span<const TimePoint> points,
                       std::span<double> discount, std::span<double> survival,
                       std::span<double> default_mass, bool refresh_discount,
                       simd::Level level) {
  CDSFLOW_ASSERT(discount.size() == points.size() &&
                     survival.size() == points.size() &&
                     default_mass.size() == points.size(),
                 "grid column spans must match the schedule length");
  if (level != simd::Level::kScalar) {
    // Vector path: columns via the SIMD kernels, default mass and leg sums
    // via the scalar reduction above. Where the SIMD tier resolves back to
    // kScalar the column values are the reference ones, so this branch is
    // then bit-identical to the fused walk below.
    simd::tabulate_columns(interest, hazard_prefix, tables, points, discount,
                           survival, refresh_discount, level);
    double q_prev = 1.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      default_mass[i] = q_prev - survival[i];
      q_prev = survival[i];
    }
    return checked_grid_sums(reduce_leg_sums(points, discount, survival));
  }
  double premium = 0.0;
  double accrual = 0.0;
  double payoff = 0.0;
  double q_prev = 1.0;  // Q(0)
  for (std::size_t i = 0; i < points.size(); ++i) {
    const TimePoint tp = points[i];
    const double q = survival_probability_prefix(hazard_prefix, tp.t);
    if (refresh_discount) {
      const double r = interest.interpolate_fast(tp.t);
      discount[i] = std::exp(-r * tp.t);
    }
    const double d = discount[i];
    const LegTerms terms = leg_terms_from_discount(d, q_prev, q, tp.dt);
    survival[i] = q;
    default_mass[i] = q_prev - q;
    premium += terms.premium;
    accrual += terms.accrual;
    payoff += terms.payoff;
    q_prev = q;
  }
  return checked_grid_sums({premium, accrual, payoff});
}

}  // namespace detail

void BatchPricer::Workspace::clear() {
  grid_of.clear();
  grid_maturity.clear();
  grid_frequency.clear();
  grid_annuity.clear();
  grid_payoff.clear();
  grid_offset.clear();
  points.clear();
  discount.clear();
  survival.clear();
  default_mass.clear();
  dedup.clear();  // keeps the bucket array, so a warmed workspace stays
                  // allocation-free
}

RiskCurveSet::RiskCurveSet(const TermStructure& interest,
                           const TermStructure& hazard,
                           BatchRiskConfig risk_config)
    : config(std::move(risk_config)) {
  const double bump = config.bump;
  CDSFLOW_EXPECT(bump > 0.0 && std::isfinite(bump),
                 "sensitivity bump must be positive and finite");
  const std::vector<double>& edges = config.ladder_edges;
  if (!edges.empty()) validate_ladder_edges(edges);
  hazard_up = make_hazard_prefix(parallel_bump(hazard, bump));
  hazard_dn = make_hazard_prefix(parallel_bump(hazard, -bump));
  interest_up = parallel_bump(interest, bump);
  interest_dn = parallel_bump(interest, -bump);
  const std::size_t n_buckets = edges.empty() ? 0 : edges.size() - 1;
  bucket_up.reserve(n_buckets);
  bucket_dn.reserve(n_buckets);
  for (std::size_t b = 0; b < n_buckets; ++b) {
    bucket_up.push_back(make_hazard_prefix(
        bucket_bump(hazard, edges[b], edges[b + 1], bump)));
    bucket_dn.push_back(make_hazard_prefix(
        bucket_bump(hazard, edges[b], edges[b + 1], -bump)));
  }
  // Every bumped column searches through the base curves' knot tables,
  // which is exact only over the base knot times.
  bool same_times = interest_up.times() == interest.times() &&
                    interest_dn.times() == interest.times() &&
                    hazard_up.times == hazard.times() &&
                    hazard_dn.times == hazard.times();
  for (std::size_t b = 0; b < n_buckets; ++b) {
    same_times = same_times && bucket_up[b].times == hazard.times() &&
                 bucket_dn[b].times == hazard.times();
  }
  CDSFLOW_ASSERT(same_times, "bumped curves must keep the base knot times");
}

BatchPricer::BatchPricer(TermStructure interest, TermStructure hazard,
                         simd::Level kernel_level,
                         std::shared_ptr<const simd::CurveTables> tables)
    : interest_(std::move(interest)),
      hazard_(std::move(hazard)),
      hazard_prefix_(make_hazard_prefix(hazard_)),
      kernel_level_(simd::resolve_level(kernel_level)),
      tables_(std::move(tables)) {
  interest_.validate();
  if (!tables_) {
    tables_ = simd::make_curve_tables(interest_, hazard_, kernel_level_);
  }
}

void BatchPricer::RiskWorkspace::clear() {
  base.clear();
  annuity_hazard_up.clear();
  payoff_hazard_up.clear();
  annuity_hazard_dn.clear();
  payoff_hazard_dn.clear();
  annuity_interest_up.clear();
  payoff_interest_up.clear();
  annuity_interest_dn.clear();
  payoff_interest_dn.clear();
  ladder_annuity_up.clear();
  ladder_payoff_up.clear();
  ladder_annuity_dn.clear();
  ladder_payoff_dn.clear();
  bucket_scratch.clear();
  scenario_col.clear();
}

BatchStats BatchPricer::build_grids(std::span<const CdsOption> options,
                                    Workspace& ws) const {
  BatchStats stats;
  stats.options = options.size();
  if (options.empty()) return stats;

  // Pass 1 -- dedup: map every option onto a unique (maturity, frequency)
  // grid id. Options are validated here, as in the scalar reference.
  ws.grid_of.reserve(options.size());
  for (const CdsOption& option : options) {
    option.validate();
    const detail::ScheduleKey key{
        std::bit_cast<std::uint64_t>(option.maturity_years),
        std::bit_cast<std::uint64_t>(option.payment_frequency)};
    const auto next_id = static_cast<std::uint32_t>(ws.grid_maturity.size());
    const auto [it, inserted] = ws.dedup.try_emplace(key, next_id);
    if (inserted) {
      ws.grid_maturity.push_back(option.maturity_years);
      ws.grid_frequency.push_back(option.payment_frequency);
    }
    ws.grid_of.push_back(it->second);
  }

  // Pass 2 -- per unique grid: materialise the schedule once into the flat
  // arena, then tabulate D/Q/dq and reduce the three leg sums via the shared
  // grid walk (detail::tabulate_grid), which accumulates in exactly the
  // scalar reference's order (so spreads match bit-for-bit).
  const std::size_t n_grids = ws.grid_maturity.size();
  ws.grid_offset.reserve(n_grids);
  ws.grid_annuity.reserve(n_grids);
  ws.grid_payoff.reserve(n_grids);
  if (kernel_level_ != simd::Level::kScalar) {
    // Vector pass 2: materialise every schedule first, tabulate the whole
    // arena in one SIMD sweep (a single lane tail for the batch instead of
    // one per grid -- on a continuous-maturity book the grids are tiny and
    // per-grid tails would eat most of the lane win), then reduce each
    // grid's leg sums in the reference order.
    for (std::size_t g = 0; g < n_grids; ++g) {
      CdsOption probe;  // schedule depends only on (maturity, frequency)
      probe.maturity_years = ws.grid_maturity[g];
      probe.payment_frequency = ws.grid_frequency[g];
      ws.grid_offset.push_back(ws.points.size());
      make_schedule(probe, ws.points);
    }
    const std::size_t arena = ws.points.size();
    ws.discount.resize(arena);
    ws.survival.resize(arena);
    ws.default_mass.resize(arena);
    simd::tabulate_columns(interest_, hazard_prefix_, *tables_, ws.points,
                           ws.discount, ws.survival,
                           /*refresh_discount=*/true, kernel_level_);
    for (std::size_t g = 0; g < n_grids; ++g) {
      const std::size_t begin = ws.grid_offset[g];
      const std::size_t end = g + 1 < n_grids ? ws.grid_offset[g + 1] : arena;
      // One walk per grid: the default-mass column and the three leg sums,
      // the latter accumulating in exactly the scalar reference's order.
      detail::LegSums sums;
      double q_prev = 1.0;  // Q(0)
      for (std::size_t i = begin; i < end; ++i) {
        const double q = ws.survival[i];
        ws.default_mass[i] = q_prev - q;
        const LegTerms terms = leg_terms_from_discount(ws.discount[i], q_prev,
                                                       q, ws.points[i].dt);
        sums.premium += terms.premium;
        sums.accrual += terms.accrual;
        sums.payoff += terms.payoff;
        q_prev = q;
      }
      const detail::GridSums checked = detail::checked_grid_sums(sums);
      ws.grid_annuity.push_back(checked.annuity);
      ws.grid_payoff.push_back(checked.payoff);
    }
    stats.unique_schedules = n_grids;
    stats.grid_points = ws.points.size();
    return stats;
  }
  for (std::size_t g = 0; g < n_grids; ++g) {
    CdsOption probe;  // schedule depends only on (maturity, frequency)
    probe.maturity_years = ws.grid_maturity[g];
    probe.payment_frequency = ws.grid_frequency[g];
    const std::size_t offset = ws.points.size();
    ws.grid_offset.push_back(offset);
    const std::size_t n_points = make_schedule(probe, ws.points);
    ws.discount.resize(offset + n_points);
    ws.survival.resize(offset + n_points);
    ws.default_mass.resize(offset + n_points);
    const detail::GridSums sums = detail::tabulate_grid(
        interest_, hazard_prefix_, *tables_,
        std::span<const TimePoint>(ws.points).subspan(offset, n_points),
        std::span<double>(ws.discount).subspan(offset, n_points),
        std::span<double>(ws.survival).subspan(offset, n_points),
        std::span<double>(ws.default_mass).subspan(offset, n_points),
        /*refresh_discount=*/true);
    ws.grid_annuity.push_back(sums.annuity);
    ws.grid_payoff.push_back(sums.payoff);
  }
  stats.unique_schedules = n_grids;
  stats.grid_points = ws.points.size();
  return stats;
}

BatchStats BatchPricer::price(std::span<const CdsOption> options,
                              std::span<SpreadResult> out,
                              Workspace& ws) const {
  CDSFLOW_EXPECT(out.size() == options.size(),
                 "batch price() needs out.size() == options.size()");
  ws.clear();
  BatchStats stats = build_grids(options, ws);
  if (options.empty()) return stats;
  const std::size_t n_grids = stats.unique_schedules;

  // Pass 3 -- per option: a branch-free combine against the reduced grid
  // sums. Association order matches combine_spread_bps; the vector kernel
  // evaluates the identical expression `lanes(level)` options per step, so
  // it stays bit-exact (see simd::combine_spreads).
  const std::uint32_t* grid_of = ws.grid_of.data();
  if (kernel_level_ != simd::Level::kScalar) {
    simd::combine_spreads(options, ws.grid_of, ws.grid_annuity, ws.grid_payoff,
                          out, kernel_level_);
  } else {
    const double* annuity = ws.grid_annuity.data();
    const double* payoff = ws.grid_payoff.data();
    for (std::size_t i = 0; i < options.size(); ++i) {
      const std::uint32_t g = grid_of[i];
      const double protection =
          (1.0 - options[i].recovery_rate) * payoff[g];
      out[i] = {options[i].id,
                kBasisPointsPerUnit * protection / annuity[g]};
    }
  }
  std::size_t scalar_points = 0;
  for (std::size_t i = 0; i < options.size(); ++i) {
    const std::uint32_t g = grid_of[i];
    const std::size_t grid_end =
        g + 1 < n_grids ? ws.grid_offset[g + 1] : ws.points.size();
    scalar_points += grid_end - ws.grid_offset[g];
  }
  stats.scalar_points = scalar_points;
  return stats;
}

std::vector<SpreadResult> BatchPricer::price(
    const std::vector<CdsOption>& options) const {
  Workspace ws;
  std::vector<SpreadResult> out(options.size());
  price(options, out, ws);
  return out;
}

BatchRiskStats BatchPricer::price_with_sensitivities(
    std::span<const CdsOption> options, std::span<Sensitivities> out,
    std::span<double> ladder_out, RiskWorkspace& ws,
    const BatchRiskConfig& config) const {
  return price_with_sensitivities(options, out, ladder_out, ws,
                                  RiskCurveSet(interest_, hazard_, config));
}

BatchRiskStats BatchPricer::price_with_sensitivities(
    std::span<const CdsOption> options, std::span<Sensitivities> out,
    std::span<double> ladder_out, RiskWorkspace& ws,
    const RiskCurveSet& curves) const {
  CDSFLOW_EXPECT(out.size() == options.size(),
                 "batch risk needs out.size() == options.size()");
  const std::size_t n_buckets = curves.buckets();
  CDSFLOW_EXPECT(ladder_out.size() == options.size() * n_buckets,
                 "batch risk needs ladder_out.size() == options * buckets");
  // The set's bumped curves share its base knot times (asserted when it was
  // built), so matching them here is what lets every bumped column search
  // through this pricer's tables.
  CDSFLOW_ASSERT(curves.hazard_up.times == hazard_prefix_.times &&
                     curves.interest_up.times() == interest_.times(),
                 "risk curve set was built over different knot times");
  const double bump = curves.config.bump;

  ws.clear();
  BatchRiskStats stats;
  stats.base = build_grids(options, ws.base);
  if (options.empty()) return stats;

  // The bumped curves were built once per risk configuration; the scalar
  // loop rebuilds them once per option. A hazard bump never moves the
  // discount column and an interest bump never moves the survival column,
  // so each scenario only re-tabulates the column its bump touches and
  // borrows the other from the base grids.
  const HazardPrefix& hazard_up = curves.hazard_up;
  const HazardPrefix& hazard_dn = curves.hazard_dn;
  const TermStructure& interest_up = curves.interest_up;
  const TermStructure& interest_dn = curves.interest_dn;
  const std::vector<HazardPrefix>& bucket_up = curves.bucket_up;
  const std::vector<HazardPrefix>& bucket_dn = curves.bucket_dn;

  // Pass 2b -- per unique grid: tabulate every bumped scenario's leg sums
  // in one walk over the grid's points, each scenario accumulating in the
  // reference order with its own running survival.
  const std::size_t n_grids = stats.base.unique_schedules;
  ws.annuity_hazard_up.reserve(n_grids);
  ws.payoff_hazard_up.reserve(n_grids);
  ws.annuity_hazard_dn.reserve(n_grids);
  ws.payoff_hazard_dn.reserve(n_grids);
  ws.annuity_interest_up.reserve(n_grids);
  ws.payoff_interest_up.reserve(n_grids);
  ws.annuity_interest_dn.reserve(n_grids);
  ws.payoff_interest_dn.reserve(n_grids);
  ws.ladder_annuity_up.reserve(n_grids * n_buckets);
  ws.ladder_payoff_up.reserve(n_grids * n_buckets);
  ws.ladder_annuity_dn.reserve(n_grids * n_buckets);
  ws.ladder_payoff_dn.reserve(n_grids * n_buckets);
  // Layout of bucket_scratch, per bucket b and direction (up = 0, dn = 1):
  // [8 * b + 4 * dir + {0: q_prev, 1: premium, 2: accrual, 3: payoff}].
  ws.bucket_scratch.resize(8 * n_buckets);

  if (kernel_level_ != simd::Level::kScalar) {
    // Vector pass 2b: one arena-wide SIMD column per scenario -- the bumped
    // survival for hazard/bucket bumps (base discount reused), the bumped
    // discount for interest bumps (base survival reused) -- then a scalar
    // per-grid reduction in the reference order. Column-at-a-time keeps the
    // extra scratch at a single arena column regardless of ladder size.
    const std::size_t arena = ws.base.points.size();
    ws.scenario_col.resize(arena);
    const auto points = std::span<const TimePoint>(ws.base.points);
    const auto col = std::span<double>(ws.scenario_col);

    const auto reduce_all = [&](std::span<const double> discount,
                                std::span<const double> survival,
                                auto&& store) {
      for (std::size_t g = 0; g < n_grids; ++g) {
        const std::size_t begin = ws.base.grid_offset[g];
        const std::size_t end =
            g + 1 < n_grids ? ws.base.grid_offset[g + 1] : arena;
        const std::size_t n = end - begin;
        store(g, detail::checked_grid_sums(detail::reduce_leg_sums(
                     points.subspan(begin, n), discount.subspan(begin, n),
                     survival.subspan(begin, n))));
      }
    };
    const auto push_into = [](std::vector<double>& annuities,
                              std::vector<double>& payoffs) {
      return [&annuities, &payoffs](std::size_t, const detail::GridSums& s) {
        annuities.push_back(s.annuity);
        payoffs.push_back(s.payoff);
      };
    };

    // Hazard parallel bumps: base discount, bumped survival.
    const simd::KnotSearchTable& hazard_table = tables_->hazard;
    const simd::KnotSearchTable& interest_table = tables_->interest;
    simd::survival_column(hazard_up, hazard_table, points, col, kernel_level_);
    reduce_all(ws.base.discount, col,
               push_into(ws.annuity_hazard_up, ws.payoff_hazard_up));
    simd::survival_column(hazard_dn, hazard_table, points, col, kernel_level_);
    reduce_all(ws.base.discount, col,
               push_into(ws.annuity_hazard_dn, ws.payoff_hazard_dn));
    // Interest parallel bumps: bumped discount, base survival.
    simd::discount_column(interest_up, interest_table, points, col,
                          kernel_level_);
    reduce_all(col, ws.base.survival,
               push_into(ws.annuity_interest_up, ws.payoff_interest_up));
    simd::discount_column(interest_dn, interest_table, points, col,
                          kernel_level_);
    reduce_all(col, ws.base.survival,
               push_into(ws.annuity_interest_dn, ws.payoff_interest_dn));
    // Ladder bucket bumps: base discount, bucket-bumped survival. The
    // per-(grid, bucket) vectors are row-major per grid, so the per-bucket
    // column sweeps write by index instead of pushing.
    ws.ladder_annuity_up.resize(n_grids * n_buckets);
    ws.ladder_payoff_up.resize(n_grids * n_buckets);
    ws.ladder_annuity_dn.resize(n_grids * n_buckets);
    ws.ladder_payoff_dn.resize(n_grids * n_buckets);
    for (std::size_t b = 0; b < n_buckets; ++b) {
      simd::survival_column(bucket_up[b], hazard_table, points, col,
                            kernel_level_);
      reduce_all(ws.base.discount, col,
                 [&](std::size_t g, const detail::GridSums& s) {
                   ws.ladder_annuity_up[g * n_buckets + b] = s.annuity;
                   ws.ladder_payoff_up[g * n_buckets + b] = s.payoff;
                 });
      simd::survival_column(bucket_dn[b], hazard_table, points, col,
                            kernel_level_);
      reduce_all(ws.base.discount, col,
                 [&](std::size_t g, const detail::GridSums& s) {
                   ws.ladder_annuity_dn[g * n_buckets + b] = s.annuity;
                   ws.ladder_payoff_dn[g * n_buckets + b] = s.payoff;
                 });
    }
  } else {
    for (std::size_t g = 0; g < n_grids; ++g) {
      const std::size_t begin = ws.base.grid_offset[g];
      const std::size_t end =
          g + 1 < n_grids ? ws.base.grid_offset[g + 1] : ws.base.points.size();

      double premium_hup = 0.0, accrual_hup = 0.0, payoff_hup = 0.0;
      double premium_hdn = 0.0, accrual_hdn = 0.0, payoff_hdn = 0.0;
      double premium_iup = 0.0, accrual_iup = 0.0, payoff_iup = 0.0;
      double premium_idn = 0.0, accrual_idn = 0.0, payoff_idn = 0.0;
      double q_prev_hup = 1.0, q_prev_hdn = 1.0, q_prev_base = 1.0;
      for (double& v : ws.bucket_scratch) v = 0.0;
      for (std::size_t b = 0; b < n_buckets; ++b) {
        ws.bucket_scratch[8 * b] = 1.0;      // q_prev, up
        ws.bucket_scratch[8 * b + 4] = 1.0;  // q_prev, dn
      }

      for (std::size_t i = begin; i < end; ++i) {
        const TimePoint tp = ws.base.points[i];
        const double d_base = ws.base.discount[i];
        const double q_base = ws.base.survival[i];
        // Hazard parallel bumps: base discount, bumped survival.
        {
          const double q = survival_probability_prefix(hazard_up, tp.t);
          const LegTerms terms =
              leg_terms_from_discount(d_base, q_prev_hup, q, tp.dt);
          premium_hup += terms.premium;
          accrual_hup += terms.accrual;
          payoff_hup += terms.payoff;
          q_prev_hup = q;
        }
        {
          const double q = survival_probability_prefix(hazard_dn, tp.t);
          const LegTerms terms =
              leg_terms_from_discount(d_base, q_prev_hdn, q, tp.dt);
          premium_hdn += terms.premium;
          accrual_hdn += terms.accrual;
          payoff_hdn += terms.payoff;
          q_prev_hdn = q;
        }
        // Interest parallel bumps: bumped discount, base survival.
        {
          const double r = interest_up.interpolate_fast(tp.t);
          const LegTerms terms = leg_terms_from_discount(
              std::exp(-r * tp.t), q_prev_base, q_base, tp.dt);
          premium_iup += terms.premium;
          accrual_iup += terms.accrual;
          payoff_iup += terms.payoff;
        }
        {
          const double r = interest_dn.interpolate_fast(tp.t);
          const LegTerms terms = leg_terms_from_discount(
              std::exp(-r * tp.t), q_prev_base, q_base, tp.dt);
          premium_idn += terms.premium;
          accrual_idn += terms.accrual;
          payoff_idn += terms.payoff;
        }
        // Ladder bucket bumps: base discount, bucket-bumped survival.
        for (std::size_t b = 0; b < n_buckets; ++b) {
          double* up = ws.bucket_scratch.data() + 8 * b;
          double* dn = up + 4;
          const double q_up = survival_probability_prefix(bucket_up[b], tp.t);
          const LegTerms terms_up =
              leg_terms_from_discount(d_base, up[0], q_up, tp.dt);
          up[1] += terms_up.premium;
          up[2] += terms_up.accrual;
          up[3] += terms_up.payoff;
          up[0] = q_up;
          const double q_dn = survival_probability_prefix(bucket_dn[b], tp.t);
          const LegTerms terms_dn =
              leg_terms_from_discount(d_base, dn[0], q_dn, tp.dt);
          dn[1] += terms_dn.premium;
          dn[2] += terms_dn.accrual;
          dn[3] += terms_dn.payoff;
          dn[0] = q_dn;
        }
        q_prev_base = q_base;
      }

      // Hoisted per grid, exactly like the base pass: the annuity is
      // recovery-free under every scenario (same diagnostic as
      // combine_spread_bps, which the scalar bumped repricings hit).
      const auto push_scenario = [](double premium, double accrual,
                                    double payoff, std::vector<double>& annuities,
                                    std::vector<double>& payoffs) {
        const double annuity = premium + accrual;
        CDSFLOW_EXPECT(annuity > 0.0,
                       "risky annuity must be positive to quote a spread");
        annuities.push_back(annuity);
        payoffs.push_back(payoff);
      };
      push_scenario(premium_hup, accrual_hup, payoff_hup, ws.annuity_hazard_up,
                    ws.payoff_hazard_up);
      push_scenario(premium_hdn, accrual_hdn, payoff_hdn, ws.annuity_hazard_dn,
                    ws.payoff_hazard_dn);
      push_scenario(premium_iup, accrual_iup, payoff_iup,
                    ws.annuity_interest_up, ws.payoff_interest_up);
      push_scenario(premium_idn, accrual_idn, payoff_idn,
                    ws.annuity_interest_dn, ws.payoff_interest_dn);
      for (std::size_t b = 0; b < n_buckets; ++b) {
        const double* up = ws.bucket_scratch.data() + 8 * b;
        const double* dn = up + 4;
        push_scenario(up[1], up[2], up[3], ws.ladder_annuity_up,
                      ws.ladder_payoff_up);
        push_scenario(dn[1], dn[2], dn[3], ws.ladder_annuity_dn,
                      ws.ladder_payoff_dn);
      }
    }
  }
  stats.bumped_grid_points = (4 + 2 * n_buckets) * stats.base.grid_points;

  // Pass 3 -- per option: every sensitivity is an O(1) combine. The
  // expressions mirror compute_sensitivities / cs01_ladder term for term so
  // the results are bit-consistent with the scalar reference.
  const double* annuity = ws.base.grid_annuity.data();
  const double* payoff = ws.base.grid_payoff.data();
  std::size_t scalar_points = 0;
  for (std::size_t i = 0; i < options.size(); ++i) {
    const std::uint32_t g = ws.base.grid_of[i];
    const double recovery = options[i].recovery_rate;
    const double one_minus_r = 1.0 - recovery;
    Sensitivities s;
    s.spread_bps =
        kBasisPointsPerUnit * (one_minus_r * payoff[g]) / annuity[g];
    {
      const double up = kBasisPointsPerUnit *
                        (one_minus_r * ws.payoff_hazard_up[g]) /
                        ws.annuity_hazard_up[g];
      const double dn = kBasisPointsPerUnit *
                        (one_minus_r * ws.payoff_hazard_dn[g]) /
                        ws.annuity_hazard_dn[g];
      s.cs01 = (up - dn) / (2.0 * bump) * 1e-4;
    }
    {
      const double up = kBasisPointsPerUnit *
                        (one_minus_r * ws.payoff_interest_up[g]) /
                        ws.annuity_interest_up[g];
      const double dn = kBasisPointsPerUnit *
                        (one_minus_r * ws.payoff_interest_dn[g]) /
                        ws.annuity_interest_dn[g];
      s.ir01 = (up - dn) / (2.0 * bump) * 1e-4;
    }
    {
      // The spread is linear in the recovery rate, so the scalar path's
      // central difference is an exact reweighting of the base sums.
      const double rb = std::min(bump, 0.5 * (1.0 - recovery));
      const double recovery_up = recovery + rb;
      const double recovery_dn = std::max(0.0, recovery - rb);
      const double up =
          kBasisPointsPerUnit * ((1.0 - recovery_up) * payoff[g]) / annuity[g];
      const double dn =
          kBasisPointsPerUnit * ((1.0 - recovery_dn) * payoff[g]) / annuity[g];
      s.rec01 = (up - dn) / (recovery_up - recovery_dn) * 0.01;
    }
    s.jtd = one_minus_r;
    out[i] = s;
    for (std::size_t b = 0; b < n_buckets; ++b) {
      const std::size_t gb = g * n_buckets + b;
      const double up = kBasisPointsPerUnit *
                        (one_minus_r * ws.ladder_payoff_up[gb]) /
                        ws.ladder_annuity_up[gb];
      const double dn = kBasisPointsPerUnit *
                        (one_minus_r * ws.ladder_payoff_dn[gb]) /
                        ws.ladder_annuity_dn[gb];
      ladder_out[i * n_buckets + b] = (up - dn) / (2.0 * bump) * 1e-4;
    }
    const std::size_t grid_end = g + 1 < n_grids
                                     ? ws.base.grid_offset[g + 1]
                                     : ws.base.points.size();
    scalar_points += grid_end - ws.base.grid_offset[g];
  }
  stats.base.scalar_points = scalar_points;
  stats.scalar_repricings = options.size() * (7 + 2 * n_buckets);
  return stats;
}

BatchPricer::RiskRun BatchPricer::price_with_sensitivities(
    const std::vector<CdsOption>& options,
    const BatchRiskConfig& config) const {
  RiskRun run;
  run.ladder_buckets =
      config.ladder_edges.empty() ? 0 : config.ladder_edges.size() - 1;
  run.sensitivities.resize(options.size());
  run.cs01_ladder.resize(options.size() * run.ladder_buckets);
  RiskWorkspace ws;
  run.stats = price_with_sensitivities(options, run.sensitivities,
                                       run.cs01_ladder, ws, config);
  return run;
}

}  // namespace cdsflow::cds
