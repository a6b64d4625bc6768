#include "cds/hazard.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace cdsflow::cds {

double hazard_element_contribution(const TermStructure& hazard, std::size_t j,
                                   double t) {
  CDSFLOW_ASSERT(j < hazard.size(), "hazard element index out of range");
  const double seg_begin = j == 0 ? 0.0 : hazard.time(j - 1);
  const double lo = std::min(seg_begin, t);
  const double hi = std::min(hazard.time(j), t);
  return hazard.value(j) * std::max(0.0, hi - lo);
}

namespace {

/// Extrapolation beyond the final knot at the last rate.
double tail_contribution(const TermStructure& hazard, double t) {
  const double last = hazard.max_time();
  if (t <= last) return 0.0;
  return hazard.values().back() * (t - last);
}

}  // namespace

double integrated_hazard(const TermStructure& hazard, double t) {
  CDSFLOW_EXPECT(t >= 0.0, "integrated hazard requires t >= 0");
  // The HLS kernel's fixed-bound scan: every element contributes (possibly
  // zero); the accumulation is the carried dependency the paper analyses.
  double acc = 0.0;
  for (std::size_t j = 0; j < hazard.size(); ++j) {
    acc += hazard_element_contribution(hazard, j, t);
  }
  return acc + tail_contribution(hazard, t);
}

double integrated_hazard_listing1(const TermStructure& hazard, double t,
                                  unsigned lanes) {
  CDSFLOW_EXPECT(t >= 0.0, "integrated hazard requires t >= 0");
  CDSFLOW_EXPECT(lanes >= 1, "listing-1 integration requires >= 1 lane");
  // An element whose segment starts at or after t contributes h * +0.0, a
  // signed zero for any finite rate, and adding a signed zero to a partial
  // that starts at +0.0 never changes it (the finite-rate assumption
  // integrated_hazard_prefix makes too), so the walk stops at the first
  // such segment. Lane j sums elements j, j + lanes, ... in increasing
  // order -- exactly the adds the cyclic fill makes into partial[j] -- and
  // the lanes fold in order: the same additions, with no lane array.
  const std::vector<double>& times = hazard.times();
  const std::size_t used = static_cast<std::size_t>(
      std::lower_bound(times.begin(), times.end(), t) - times.begin());
  const std::size_t stop = std::min(used + 1, hazard.size());
  double acc = 0.0;
  for (unsigned lane = 0; lane < lanes; ++lane) {
    double partial = 0.0;
    for (std::size_t j = lane; j < stop; j += lanes) {
      partial += hazard_element_contribution(hazard, j, t);
    }
    acc += partial;
  }
  return acc + tail_contribution(hazard, t);
}

double survival_probability(const TermStructure& hazard, double t) {
  return std::exp(-integrated_hazard(hazard, t));
}

HazardPrefix make_hazard_prefix(const TermStructure& hazard) {
  hazard.validate();
  HazardPrefix prefix;
  fill_hazard_prefix(hazard.times(), hazard.values(), prefix);
  return prefix;
}

void fill_hazard_prefix(std::span<const double> times,
                        std::span<const double> rates, HazardPrefix& prefix) {
  CDSFLOW_ASSERT(times.size() == rates.size(),
                 "hazard prefix needs times.size() == rates.size()");
  prefix.times.assign(times.begin(), times.end());
  prefix.rates.assign(rates.begin(), rates.end());
  prefix.lambda.clear();
  prefix.lambda.reserve(prefix.times.size());
  // Accumulate full-segment contributions in exactly the in-order scan's
  // association order, so every lambda[j] is the bit pattern the scan
  // produces for t == tau_j.
  double acc = 0.0;
  double prev = 0.0;
  for (std::size_t j = 0; j < prefix.times.size(); ++j) {
    acc += prefix.rates[j] * (prefix.times[j] - prev);
    prefix.lambda.push_back(acc);
    prev = prefix.times[j];
  }
}

double integrated_hazard_prefix(const HazardPrefix& prefix, double t) {
  CDSFLOW_EXPECT(t >= 0.0, "integrated hazard requires t >= 0");
  CDSFLOW_ASSERT(!prefix.times.empty(), "empty hazard prefix");
  // First knot with tau_j >= t: t lies in segment j (tau_{j-1}, tau_j].
  const std::size_t j = static_cast<std::size_t>(
      std::lower_bound(prefix.times.begin(), prefix.times.end(), t) -
      prefix.times.begin());
  if (j == prefix.times.size()) {
    // Beyond the last knot: full prefix + last-rate extrapolation, the same
    // two-term sum integrated_hazard's tail handling produces.
    return prefix.lambda.back() +
           prefix.rates.back() * (t - prefix.times.back());
  }
  const double seg_begin = j == 0 ? 0.0 : prefix.times[j - 1];
  const double base = j == 0 ? 0.0 : prefix.lambda[j - 1];
  return base + prefix.rates[j] * (t - seg_begin);
}

double survival_probability_prefix(const HazardPrefix& prefix, double t) {
  return std::exp(-integrated_hazard_prefix(prefix, t));
}

double default_probability(const TermStructure& hazard, double t) {
  return 1.0 - survival_probability(hazard, t);
}

double accumulate_naive(std::span<const double> xs) {
  double acc = 0.0;
  for (const double x : xs) acc += x;
  return acc;
}

}  // namespace cdsflow::cds
