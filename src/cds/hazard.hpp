/// \file hazard.hpp
/// Hazard-rate integration and survival probabilities.
///
/// "The first significant option calculation performed for each time point
/// is the probability that the loan has defaulted by that point in time,
/// which involves accumulating the hazard rate constant data up until this
/// time." (paper Sec. II-A)
///
/// The hazard curve is piecewise-constant: rate h_j applies on the interval
/// (tau_{j-1}, tau_j] (with tau_{-1} = 0) and the last rate extrapolates
/// beyond the final knot. The integrated hazard is
///
///     Lambda(t) = sum_j h_j * max(0, min(tau_j, t) - min(tau_{j-1}, t))
///               + h_{N-1} * max(0, t - tau_{N-1})
///
/// and the survival probability Q(t) = exp(-Lambda(t)); the defaulting
/// probability is 1 - Q(t).
///
/// Each element's contribution is independent -- only the *sum* carries a
/// dependency -- which is why the paper's Listing 1 can replicate the
/// accumulator into seven lanes and recover II=1. Two implementations are
/// provided with *different summation orders*:
///
///   * integrated_hazard          -- in-order accumulation, the Vitis
///                                   library structure and the golden model;
///   * integrated_hazard_listing1 -- the seven-partial-sum rewrite,
///                                   bit-for-bit the order Listing 1
///                                   produces (including the uneven-tail
///                                   handling the paper omits for brevity).
///
/// The generic lane-accumulators at the bottom are the same trick over a
/// plain array; the Listing-1 bench uses them to show the dependency-chain
/// effect natively on the CPU as well.

#pragma once

#include <cstddef>
#include <span>

#include "cds/curve.hpp"

namespace cdsflow::cds {

/// Contribution of curve element `j` to Lambda(t); no carried dependency.
double hazard_element_contribution(const TermStructure& hazard, std::size_t j,
                                   double t);

/// In-order integrated hazard (Vitis library summation order).
double integrated_hazard(const TermStructure& hazard, double t);

/// Listing-1 integrated hazard: `lanes` partial sums filled cyclically, then
/// folded in lane order. lanes == 7 covers the 7-cycle double-add latency.
/// Elements whose segment starts at or after t only add signed zeros, so the
/// walk stops there: O(knots before t) with no allocation, bit-identical to
/// the hardware's fixed-bound scan over every knot for finite rates. The
/// simulated engines charge that scan's cycles in their stage work function.
double integrated_hazard_listing1(const TermStructure& hazard, double t,
                                  unsigned lanes = 7);

/// Q(t) = exp(-Lambda(t)) using the in-order integration.
double survival_probability(const TermStructure& hazard, double t);

/// 1 - Q(t).
double default_probability(const TermStructure& hazard, double t);

// --- prefix-sum fast path --------------------------------------------------
//
// The host-side batch pricer queries Lambda(t) thousands of times against
// one fixed hazard curve; re-running the O(knots) scan per query is exactly
// the redundant recomputation the paper eliminates in hardware. Because the
// in-order scan accumulates full-segment contributions left to right (every
// segment past t contributes +0.0, which cannot change a finite IEEE sum),
// Lambda(tau_0..tau_j) can be precomputed once as a prefix sum in the same
// association order; a query then locates its segment by binary search and
// adds the single partial-segment term. The result is bit-for-bit equal to
// integrated_hazard() for every t >= 0.

/// Precomputed prefix sums of the hazard integral at each knot.
struct HazardPrefix {
  /// Knot times tau_j, copied from the curve.
  std::vector<double> times;
  /// Piecewise rates h_j, copied from the curve.
  std::vector<double> rates;
  /// lambda[j] = Lambda(tau_j), accumulated in curve order.
  std::vector<double> lambda;
};

/// Builds the prefix table (O(knots), done once per curve).
HazardPrefix make_hazard_prefix(const TermStructure& hazard);

/// Rebuilds `prefix` in place from raw knot arrays, reusing its vectors'
/// capacity (no validation; callers own the curve invariants). The lambda
/// accumulation order is exactly make_hazard_prefix's, so the result is
/// bit-identical to building a TermStructure and calling it -- this is the
/// scenario sweep's per-scenario path, which swaps rate rows against fixed
/// knot times without re-constructing curve objects.
void fill_hazard_prefix(std::span<const double> times,
                        std::span<const double> rates, HazardPrefix& prefix);

/// O(log knots) Lambda(t); bit-identical to integrated_hazard(hazard, t)
/// for the curve the prefix was built from.
double integrated_hazard_prefix(const HazardPrefix& prefix, double t);

/// Q(t) = exp(-Lambda(t)) via the prefix table.
double survival_probability_prefix(const HazardPrefix& prefix, double t);

// --- generic lane accumulation (Listing 1 over a plain array) --------------

/// Straight left-to-right sum: the II=7 dependency chain on the FPGA, and a
/// serial dependency chain on the CPU too.
double accumulate_naive(std::span<const double> xs);

/// Listing 1: `Lanes` partial sums filled cyclically in chunks, folded at
/// the end. Independent adds every cycle on the FPGA; independent dependency
/// chains (ILP) on the CPU.
template <unsigned Lanes = 7>
double accumulate_partial_lanes(std::span<const double> xs) {
  static_assert(Lanes >= 1);
  double lanes[Lanes];
  for (unsigned j = 0; j < Lanes; ++j) lanes[j] = 0.0;
  const std::size_t whole = xs.size() / Lanes;
  // Outer loop II=Lanes, inner loop fully unrolled (Listing 1 lines 4-10).
  for (std::size_t i = 0; i < whole; ++i) {
    for (unsigned j = 0; j < Lanes; ++j) {
      lanes[j] += xs[i * Lanes + j];
    }
  }
  // Uneven tail (omitted from the paper's listing for brevity).
  for (std::size_t k = whole * Lanes; k < xs.size(); ++k) {
    lanes[k % Lanes] += xs[k];
  }
  // Final fold (Listing 1 lines 12-15): short, so the carried dependency
  // costs only Lanes * latency cycles.
  double sum = 0.0;
  for (unsigned j = 0; j < Lanes; ++j) sum += lanes[j];
  return sum;
}

}  // namespace cdsflow::cds
