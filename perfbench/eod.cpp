/// \file eod.cpp
/// `eod-batch`: closed loop, one caller, back-to-back end-of-day passes.
///
/// One pass carries a continuous-maturity book (every option its own grid,
/// so nothing dedups) through the three batch layers in turn: spreads via
/// `PortfolioRuntime` on `cpu-vec`, Greeks with a CS01 ladder via
/// `PortfolioRuntime` on `cpu-vec-risk`, and a hazard-scenario sweep via
/// `SweepRuntime`, all on nproc-1 lanes. The same book is priced every pass,
/// so each pass's output bits must equal the first pass's; after the loop
/// the outputs are gated against single-engine and reference pricers.
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cds/batch_pricer.hpp"
#include "cds/precision.hpp"
#include "cds/pricer.hpp"
#include "cds/sweep_pricer.hpp"
#include "common.hpp"
#include "runtime/portfolio_runtime.hpp"
#include "runtime/sweep_runtime.hpp"
#include "workload/curves.hpp"
#include "workload/options.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

namespace {

using namespace cdsflow;

const std::vector<double> kLadderEdges = {0.0, 1.0, 3.0, 5.0, 7.0, 10.0};

/// Worker lanes: all cores but the caller's, and never fewer than one.
unsigned eod_lanes() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 1 ? n - 1 : 1;
}

struct Runtimes {
  std::unique_ptr<runtime::PortfolioRuntime> price;
  std::unique_ptr<runtime::PortfolioRuntime> risk;
  std::unique_ptr<runtime::SweepRuntime> sweep;
};

Runtimes make_runtimes(const cds::TermStructure& interest,
                       const cds::TermStructure& hazard,
                       const std::vector<cds::CdsOption>& book,
                       unsigned lanes) {
  Runtimes rt;
  runtime::RuntimeConfig price;
  price.engine = "cpu-vec";
  price.workers = lanes;
  rt.price = std::make_unique<runtime::PortfolioRuntime>(interest, hazard,
                                                         price);
  runtime::RuntimeConfig risk = price;
  risk.engine = "cpu-vec-risk";
  risk.cpu.ladder_edges = kLadderEdges;
  rt.risk =
      std::make_unique<runtime::PortfolioRuntime>(interest, hazard, risk);
  runtime::SweepRuntimeConfig sweep;
  sweep.workers = lanes;
  sweep.level = cds::simd::active_level();
  rt.sweep =
      std::make_unique<runtime::SweepRuntime>(interest, hazard, book, sweep);
  return rt;
}

struct Pass {
  runtime::RuntimeRun price;
  runtime::RuntimeRun risk;
  runtime::SweepRun sweep;
};

std::uint64_t hash_pass(const Pass& p) {
  BitHash h;
  for (const auto& r : p.price.run.results) {
    h.add_value(r.id);
    h.add_value(std::bit_cast<std::uint64_t>(r.spread_bps));
  }
  for (const auto& s : p.risk.run.sensitivities) {
    for (const double v : {s.spread_bps, s.cs01, s.ir01, s.rec01, s.jtd}) {
      h.add_value(std::bit_cast<std::uint64_t>(v));
    }
  }
  for (const double v : p.risk.run.cs01_ladder) {
    h.add_value(std::bit_cast<std::uint64_t>(v));
  }
  for (const auto& a : p.sweep.aggregates) {
    h.add_value(std::bit_cast<std::uint64_t>(a.min_spread_bps));
    h.add_value(std::bit_cast<std::uint64_t>(a.max_spread_bps));
  }
  return h.value();
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double shard_seconds(const runtime::RuntimeRun& run) {
  double s = 0.0;
  for (const auto& shard : run.shards) s += shard.engine_seconds;
  return s;
}

}  // namespace

Result run_eod_batch(const Options& opt) {
  Result r;
  r.workload = "eod-batch";
  r.traced = opt.trace;
  const unsigned lanes = eod_lanes();
  const std::size_t n_options = opt.smoke ? 512 : 4096;
  const std::size_t n_scenarios = opt.smoke ? 8 : 64;
  const cds::simd::Level level = cds::simd::active_level();

  // Inputs: the paper's 1024-knot curves, a continuous-maturity book and a
  // Monte Carlo hazard-scenario set, both from the seed.
  const auto t_gen = now_ns();
  const cds::TermStructure interest = workload::paper_interest_curve();
  const cds::TermStructure hazard = workload::paper_hazard_curve();
  workload::PortfolioSpec spec;
  spec.count = n_options;
  spec.seed = opt.seed;
  const std::vector<cds::CdsOption> book = workload::make_portfolio(spec);
  const workload::ScenarioSet scenarios =
      workload::mc_hazard_scenarios(hazard, n_scenarios, 0.25, opt.seed);
  const cds::ScenarioMatrix matrix = scenarios.matrix();
  r.put("gen_s", seconds_between(t_gen, now_ns()), "s");
  r.put("book_options", static_cast<double>(n_options), "count");
  r.put("sweep_scenarios", static_cast<double>(n_scenarios), "count");
  r.put("lanes", lanes, "count");

  auto run_pass = [&](Runtimes& rt, Tracer& tracer, std::int64_t root,
                      Pass& p, double* stage_s) {
    auto a = now_ns();
    p.price = rt.price->price(book);
    auto b = now_ns();
    auto id = tracer.add("runtime.price", "runtime", a, b, root);
    tracer.add("cds.price", "cds", a,
               a + static_cast<std::int64_t>(p.price.run.total_seconds * 1e9),
               id);
    stage_s[0] = seconds_between(a, b);
    a = b;
    p.risk = rt.risk->price(book);
    b = now_ns();
    id = tracer.add("runtime.risk", "runtime", a, b, root);
    tracer.add("cds.risk", "cds", a,
               a + static_cast<std::int64_t>(p.risk.run.total_seconds * 1e9),
               id);
    stage_s[1] = seconds_between(a, b);
    a = b;
    p.sweep = rt.sweep->run(matrix);
    b = now_ns();
    id = tracer.add("runtime.sweep", "runtime", a, b, root);
    tracer.add("cds.sweep", "cds", a,
               a + static_cast<std::int64_t>(p.sweep.modelled_seconds * 1e9),
               id);
    stage_s[2] = seconds_between(a, b);
  };

  // Set-up: runtime + engine construction (SweepRuntime tabulates the base
  // grids) and one warm-up pass, repeated; median reported.
  std::vector<double> setup, construct;
  Runtimes rt;
  Pass first;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    rt = {};
    const auto t0 = now_ns();
    rt = make_runtimes(interest, hazard, book, lanes);
    const auto t1 = now_ns();
    Tracer off(false);
    double stage_s[3];
    run_pass(rt, off, -1, first, stage_s);
    construct.push_back(seconds_between(t0, t1));
    setup.push_back(seconds_between(t0, now_ns()));
  }
  r.set("setup_s", median(setup), "s");
  r.put("engines.setup_s", median(construct), "s");
  const std::uint64_t want_hash = hash_pass(first);

  struct Totals {
    std::uint64_t passes = 0;
    std::uint64_t mismatches = 0;
    double wall = 0.0;
    double stage[3] = {0, 0, 0};
    double busy[3] = {0, 0, 0};      // summed shard seconds
    double makespan[3] = {0, 0, 0};  // list-schedule makespans
    std::vector<double> pass_us;
  };
  auto run_loop = [&](double seconds, Tracer& tracer, Totals& t) {
    Pass p;
    const auto t0 = now_ns();
    const auto deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t root = tracer.add("eod.loop", "unattributed", t0, 0);
    while (now_ns() < deadline) {
      const auto a = now_ns();
      double stage_s[3];
      run_pass(rt, tracer, root, p, stage_s);
      const auto v = now_ns();
      if (hash_pass(p) != want_hash) ++t.mismatches;
      const auto b = now_ns();
      tracer.add("bench.verify", "bench", v, b, root);
      t.pass_us.push_back(static_cast<double>(v - a) * 1e-3);
      for (int s = 0; s < 3; ++s) t.stage[s] += stage_s[s];
      t.busy[0] += shard_seconds(p.price);
      t.busy[1] += shard_seconds(p.risk);
      for (const auto& shard : p.sweep.shards) t.busy[2] += shard.seconds;
      t.makespan[0] += p.price.run.total_seconds;
      t.makespan[1] += p.risk.run.total_seconds;
      t.makespan[2] += p.sweep.modelled_seconds;
      ++t.passes;
    }
    tracer.close(root);
    t.wall = seconds_between(t0, now_ns());
  };

  double overhead_base = 0.0;
  if (opt.trace) {
    Tracer off(false);
    Totals base;
    run_loop(opt.seconds / 2, off, base);
    overhead_base = static_cast<double>(base.passes) / base.wall;
    r.attempted += base.passes;
    r.fail(base.mismatches, "a pass's output bits differ from the first pass");
  }
  Tracer tracer(opt.trace);
  Totals t;
  run_loop(opt.trace ? opt.seconds / 2 : opt.seconds, tracer, t);
  const double n = static_cast<double>(n_options);
  const double passes = static_cast<double>(t.passes);
  r.set("opts_per_s", passes * n / t.wall, "opts/s");
  r.set("p50_us", median(t.pass_us), "us");
  r.set("p75_us", pct(t.pass_us, 75.0), "us");
  r.put("pass_p99_us", pct(t.pass_us, 99.0), "us");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.put("passes", passes, "count");
  r.put("price_opts_per_s", passes * n / t.stage[0], "opts/s");
  r.put("risk_opts_per_s", passes * n / t.stage[1], "opts/s");
  r.put("sweep_scenarios_per_s",
        passes * static_cast<double>(n_scenarios) / t.stage[2],
        "scenarios/s");
  const double stage_wall = t.stage[0] + t.stage[1] + t.stage[2];
  const double busy = t.busy[0] + t.busy[1] + t.busy[2];
  const double makespan = t.makespan[0] + t.makespan[1] + t.makespan[2];
  r.put("runtime.lane_busy_frac", busy / (lanes * stage_wall), "frac");
  r.put("runtime.merge_s", (stage_wall - makespan) / passes, "s");
  r.attempted += t.passes;
  r.fail(t.mismatches, "a pass's output bits differ from the first pass");

  // --- correctness gates on the first pass's outputs ------------------------
  const cds::BatchPricer single(interest, hazard, level);
  {
    // Sharded spreads == one BatchPricer at the same SIMD level.
    const auto want = single.price(book);
    bool ok = want.size() == first.price.run.results.size();
    for (std::size_t i = 0; ok && i < want.size(); ++i) {
      ok = want[i].id == first.price.run.results[i].id &&
           same_bits(want[i].spread_bps, first.price.run.results[i].spread_bps);
    }
    ++r.attempted;
    if (!ok) r.fail(1, "sharded spreads differ from a single BatchPricer");
  }
  {
    // Sharded Greeks == one BatchPricer risk run at the same level.
    cds::BatchRiskConfig config;
    config.ladder_edges = kLadderEdges;
    const auto want = single.price_with_sensitivities(book, config);
    const auto& got = first.risk.run;
    bool ok = want.sensitivities.size() == got.sensitivities.size() &&
              want.cs01_ladder.size() == got.cs01_ladder.size();
    for (std::size_t i = 0; ok && i < want.sensitivities.size(); ++i) {
      const auto& a = want.sensitivities[i];
      const auto& b = got.sensitivities[i];
      ok = same_bits(a.spread_bps, b.spread_bps) && same_bits(a.cs01, b.cs01) &&
           same_bits(a.ir01, b.ir01) && same_bits(a.rec01, b.rec01) &&
           same_bits(a.jtd, b.jtd);
    }
    for (std::size_t i = 0; ok && i < want.cs01_ladder.size(); ++i) {
      ok = same_bits(want.cs01_ladder[i], got.cs01_ladder[i]);
    }
    ++r.attempted;
    if (!ok) r.fail(1, "sharded Greeks differ from a single BatchPricer");
  }
  {
    // A sample of spreads within the vector-kernel contract of the scalar
    // reference pricer.
    const cds::ReferencePricer reference(interest, hazard);
    std::uint64_t bad = 0;
    const std::size_t step = std::max<std::size_t>(1, n_options / 256);
    for (std::size_t i = 0; i < n_options; i += step) {
      const double want = reference.spread_bps(book[i]);
      const double got = first.price.run.results[i].spread_bps;
      if (std::fabs(got - want) >
          cds::VectorKernelContract::kSpreadRelTol * std::fabs(want)) {
        ++bad;
      }
    }
    ++r.attempted;
    if (bad != 0) r.fail(1, "spreads outside VectorKernelContract of reference");
  }
  {
    // Sweep aggregates == the naive per-scenario loop, on a sample.
    bool ok = first.sweep.aggregates.size() == n_scenarios;
    cds::BatchPricer::Workspace ws;
    std::vector<cds::SpreadResult> out(n_options);
    for (std::size_t s = 0; ok && s < n_scenarios; s += n_scenarios / 4) {
      const cds::BatchPricer naive(interest, scenarios.hazard_curve(s), level);
      naive.price(book, out, ws);
      const auto want = cds::SweepPricer::aggregate_spreads(out);
      ok = same_bits(want.min_spread_bps,
                     first.sweep.aggregates[s].min_spread_bps) &&
           same_bits(want.max_spread_bps,
                     first.sweep.aggregates[s].max_spread_bps);
    }
    ++r.attempted;
    if (!ok) r.fail(1, "sweep aggregates differ from the naive loop");
  }

  // --- per-layer probes (traced run) ----------------------------------------
  if (opt.trace) {
    // Single-threaded kernel throughput on the same inputs.
    auto best_of = [](int reps, auto&& fn) {
      double best = 1e300;
      for (int i = 0; i < reps; ++i) {
        const auto a = now_ns();
        fn();
        best = std::min(best, seconds_between(a, now_ns()));
      }
      return best;
    };
    cds::BatchPricer::Workspace ws;
    std::vector<cds::SpreadResult> out(n_options);
    cds::BatchStats stats;
    const double price_1t = best_of(5, [&] {
      stats = single.price(book, out, ws);
    });
    cds::BatchPricer::RiskWorkspace rws;
    std::vector<cds::Sensitivities> greeks(n_options);
    std::vector<double> ladder(n_options * (kLadderEdges.size() - 1));
    cds::BatchRiskConfig config;
    config.ladder_edges = kLadderEdges;
    const double risk_1t = best_of(3, [&] {
      single.price_with_sensitivities(book, greeks, ladder, rws, config);
    });
    cds::SweepPricer sweeper(interest, hazard, book, level);
    std::vector<cds::ScenarioAggregate> aggs(n_scenarios);
    cds::SweepStats sweep_stats;
    const double sweep_1t = best_of(3, [&] {
      sweep_stats = sweeper.sweep(matrix, 0, n_scenarios, aggs);
    });
    const double price_1t_rate = n / price_1t;
    r.put("cds.price_1t_opts_per_s", price_1t_rate, "opts/s");
    r.put("cds.risk_1t_opts_per_s", n / risk_1t, "opts/s");
    r.put("cds.sweep_1t_scenarios_per_s",
          static_cast<double>(n_scenarios) / sweep_1t, "scenarios/s");
    r.put("cds.grid_points", static_cast<double>(stats.grid_points), "count");
    r.put("cds.dedup_ratio",
          static_cast<double>(stats.grid_points) /
              static_cast<double>(std::max<std::size_t>(1, stats.scalar_points)),
          "ratio");
    // Computed, not measured: bytes the kernel touches per pricing pass --
    // per grid point the time point and its discount/survival/default-mass
    // columns, per option its input and result.
    r.put("cds.computed_bytes",
          static_cast<double>(stats.grid_points *
                                  (sizeof(cds::TimePoint) + 3 * sizeof(double)) +
                              n_options * (sizeof(cds::CdsOption) +
                                           sizeof(cds::SpreadResult))),
          "bytes");
    r.put("cds.shared_column_rate", sweep_stats.shared_column_rate(), "frac");
    r.put("runtime.scaling_eff",
          (passes * n / t.stage[0]) / (lanes * price_1t_rate), "frac");

    r.ledger = build_ledger(tracer.spans());
    r.spans = tracer.spans().size();
    r.trace_overhead_frac = overhead_base / (passes / t.wall) - 1.0;
    if (!opt.spans_path.empty()) {
      write_spans(opt.spans_path, tracer.spans());
    }
  }
  return r;
}

}  // namespace perfbench
