/// \file test_cds_hazard.cpp
/// Unit tests for hazard integration and survival probabilities: closed-form
/// checks on flat curves, piecewise cases by hand, Listing-1 summation-order
/// agreement, and the generic lane accumulators.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "cds/hazard.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "workload/scenario.hpp"

namespace cdsflow::cds {
namespace {

TermStructure flat_hazard(double h, std::size_t points = 64,
                          double span = 10.0) {
  std::vector<double> times(points), values(points, h);
  for (std::size_t i = 0; i < points; ++i) {
    times[i] = (static_cast<double>(i + 1) / static_cast<double>(points)) * span;
  }
  return TermStructure(std::move(times), std::move(values));
}

TEST(Hazard, FlatCurveIntegratesToHTimesT) {
  const auto hz = flat_hazard(0.03);
  for (const double t : {0.0, 0.7, 2.5, 9.999, 10.0}) {
    EXPECT_NEAR(integrated_hazard(hz, t), 0.03 * t, 1e-12) << "t=" << t;
  }
}

TEST(Hazard, ExtrapolatesLastRateBeyondCurve) {
  const auto hz = flat_hazard(0.03, 64, 10.0);
  EXPECT_NEAR(integrated_hazard(hz, 15.0), 0.03 * 15.0, 1e-12);
}

TEST(Hazard, PiecewiseTwoSegmentByHand) {
  // 2% on (0,1], 6% on (1,2].
  const TermStructure hz({1.0, 2.0}, {0.02, 0.06});
  EXPECT_NEAR(integrated_hazard(hz, 0.5), 0.01, 1e-15);
  EXPECT_NEAR(integrated_hazard(hz, 1.0), 0.02, 1e-15);
  EXPECT_NEAR(integrated_hazard(hz, 1.5), 0.02 + 0.03, 1e-15);
  EXPECT_NEAR(integrated_hazard(hz, 2.0), 0.08, 1e-15);
  EXPECT_NEAR(integrated_hazard(hz, 3.0), 0.08 + 0.06, 1e-15);
}

TEST(Hazard, ElementContributionsSumToIntegral) {
  const TermStructure hz({1.0, 2.0, 5.0}, {0.02, 0.06, 0.01});
  const double t = 3.7;
  double sum = 0.0;
  for (std::size_t j = 0; j < hz.size(); ++j) {
    sum += hazard_element_contribution(hz, j, t);
  }
  EXPECT_NEAR(sum, integrated_hazard(hz, t), 1e-15);
}

TEST(Hazard, IntegralIsMonotoneInT) {
  const TermStructure hz({1.0, 3.0, 6.0, 10.0}, {0.05, 0.01, 0.08, 0.02});
  double prev = -1.0;
  for (double t = 0.0; t < 12.0; t += 0.1) {
    const double v = integrated_hazard(hz, t);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Hazard, NegativeTimeRejected) {
  const auto hz = flat_hazard(0.02);
  EXPECT_THROW(integrated_hazard(hz, -0.1), Error);
  EXPECT_THROW(integrated_hazard_listing1(hz, -0.1), Error);
}

TEST(Hazard, SurvivalMatchesClosedFormOnFlatCurve) {
  const auto hz = flat_hazard(0.04);
  for (const double t : {0.5, 1.0, 5.0, 10.0}) {
    EXPECT_NEAR(survival_probability(hz, t), std::exp(-0.04 * t), 1e-12);
    EXPECT_NEAR(default_probability(hz, t), 1.0 - std::exp(-0.04 * t),
                1e-12);
  }
}

TEST(Hazard, SurvivalBoundsAndMonotonicity) {
  const TermStructure hz({1.0, 4.0, 9.0}, {0.08, 0.02, 0.05});
  double prev = 1.0 + 1e-15;
  for (double t = 0.0; t < 12.0; t += 0.25) {
    const double q = survival_probability(hz, t);
    EXPECT_GT(q, 0.0);
    EXPECT_LE(q, 1.0);
    EXPECT_LE(q, prev);  // non-increasing
    prev = q;
  }
  EXPECT_DOUBLE_EQ(survival_probability(hz, 0.0), 1.0);
}

// --- Listing 1 agreement ------------------------------------------------------

/// 257 random knots (deliberately not a multiple of 7).
TermStructure random_257_knot_hazard() {
  Rng rng(5);
  std::vector<double> times, values;
  double t_acc = 0.0;
  for (int i = 0; i < 257; ++i) {
    t_acc += rng.uniform(0.01, 0.1);
    times.push_back(t_acc);
    values.push_back(rng.uniform(0.001, 0.2));
  }
  return TermStructure(std::move(times), std::move(values));
}

TEST(Listing1, AgreesWithInOrderSummation) {
  const TermStructure hz = random_257_knot_hazard();
  const double t_acc = hz.max_time();
  for (double t = 0.0; t < t_acc * 1.1; t += t_acc / 17.0) {
    const double a = integrated_hazard(hz, t);
    const double b = integrated_hazard_listing1(hz, t, 7);
    EXPECT_LT(relative_difference(a, b), 1e-13) << "t=" << t;
  }
}

TEST(Listing1, LaneCountInvariance) {
  const TermStructure hz({1.0, 2.0, 3.0, 4.0, 5.0},
                         {0.01, 0.02, 0.03, 0.04, 0.05});
  const double reference = integrated_hazard(hz, 4.2);
  for (unsigned lanes = 1; lanes <= 11; ++lanes) {
    EXPECT_LT(relative_difference(
                  integrated_hazard_listing1(hz, 4.2, lanes), reference),
              1e-14)
        << "lanes=" << lanes;
  }
}

/// The hardware's formulation: a fixed-bound scan over every knot's
/// contribution (`elements`, in knot order), each added into
/// partial[j % lanes], partials folded in lane order, then the
/// extrapolation tail.
double listing1_full_scan(const TermStructure& hz,
                          const std::vector<double>& elements, double t,
                          unsigned lanes) {
  std::vector<double> partial(lanes, 0.0);
  for (std::size_t j = 0; j < elements.size(); ++j) {
    partial[j % lanes] += elements[j];
  }
  double acc = 0.0;
  for (unsigned j = 0; j < lanes; ++j) acc += partial[j];
  const double tail =
      t > hz.max_time() ? hz.values().back() * (t - hz.max_time()) : 0.0;
  return acc + tail;
}

/// Bitwise comparison of integrated_hazard_listing1 against the full scan
/// for lanes 1..11 at every t; reports the first mismatch.
void expect_listing1_bits(const TermStructure& hz,
                          const std::vector<double>& ts, const char* curve) {
  std::size_t mismatches = 0;
  std::string first;
  std::vector<double> elements(hz.size());
  for (const double t : ts) {
    for (std::size_t j = 0; j < hz.size(); ++j) {
      elements[j] = hazard_element_contribution(hz, j, t);
    }
    for (unsigned lanes = 1; lanes <= 11; ++lanes) {
      const double got = integrated_hazard_listing1(hz, t, lanes);
      const double want = listing1_full_scan(hz, elements, t, lanes);
      if (std::bit_cast<std::uint64_t>(got) !=
          std::bit_cast<std::uint64_t>(want)) {
        if (mismatches++ == 0) {
          first = "t=" + std::to_string(t) + " lanes=" +
                  std::to_string(lanes);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << curve << ": first mismatch at " << first;
}

/// Every knot, every knot midpoint, 0, beyond the last knot, and 10k seeded
/// uniform draws over [0, 1.2 * last knot].
std::vector<double> listing1_probe_times(const TermStructure& hz) {
  std::vector<double> ts{0.0};
  for (std::size_t j = 0; j < hz.size(); ++j) {
    ts.push_back(hz.time(j));
    const double prev = j == 0 ? 0.0 : hz.time(j - 1);
    ts.push_back(0.5 * (prev + hz.time(j)));
  }
  const double last = hz.max_time();
  for (const double beyond : {std::nextafter(last, 2.0 * last), last + 0.25,
                              1.5 * last, 4.0 * last}) {
    ts.push_back(beyond);
  }
  Rng rng(20211);
  for (int i = 0; i < 10000; ++i) ts.push_back(rng.uniform(0.0, 1.2 * last));
  return ts;
}

TEST(Listing1, BitIdenticalToFullScanOnPaperCurve) {
  const TermStructure hz = workload::paper_scenario(1, 42).hazard;
  ASSERT_EQ(hz.size(), 1024u);
  expect_listing1_bits(hz, listing1_probe_times(hz), "1024-knot paper curve");
}

TEST(Listing1, BitIdenticalToFullScanOn257KnotCurve) {
  const TermStructure hz = random_257_knot_hazard();
  expect_listing1_bits(hz, listing1_probe_times(hz), "257-knot curve");
}

TEST(Listing1, RejectsZeroLanes) {
  const auto hz = flat_hazard(0.02);
  EXPECT_THROW(integrated_hazard_listing1(hz, 1.0, 0), Error);
}

// --- generic accumulators -------------------------------------------------------

TEST(Accumulate, NaiveSumsExactlyForSmallInts) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(accumulate_naive(xs), 55.0);
}

TEST(Accumulate, PartialLanesMatchNaiveWithinTolerance) {
  Rng rng(7);
  std::vector<double> xs(1024);
  for (auto& x : xs) x = rng.uniform(-1.0, 1.0);
  const double a = accumulate_naive(xs);
  const double b = accumulate_partial_lanes<7>(xs);
  EXPECT_LT(std::fabs(a - b), 1e-11);
}

TEST(Accumulate, PartialLanesHandleUnevenTail) {
  // The case the paper's listing omits "for brevity": length % lanes != 0.
  std::vector<double> xs(1000, 1.0);  // 1000 = 142*7 + 6
  EXPECT_DOUBLE_EQ(accumulate_partial_lanes<7>(xs), 1000.0);
  std::vector<double> xs2(5, 2.0);  // shorter than one chunk
  EXPECT_DOUBLE_EQ(accumulate_partial_lanes<7>(xs2), 10.0);
}

TEST(Accumulate, EmptyInput) {
  EXPECT_DOUBLE_EQ(accumulate_naive({}), 0.0);
  EXPECT_DOUBLE_EQ(accumulate_partial_lanes<7>(std::span<const double>{}),
                   0.0);
}

TEST(Accumulate, DifferentLaneCountsAgree) {
  Rng rng(9);
  std::vector<double> xs(511);
  for (auto& x : xs) x = rng.uniform(0.0, 1.0);
  const double reference = accumulate_naive(xs);
  EXPECT_LT(std::fabs(accumulate_partial_lanes<2>(xs) - reference), 1e-11);
  EXPECT_LT(std::fabs(accumulate_partial_lanes<4>(xs) - reference), 1e-11);
  EXPECT_LT(std::fabs(accumulate_partial_lanes<8>(xs) - reference), 1e-11);
}

}  // namespace
}  // namespace cdsflow::cds
