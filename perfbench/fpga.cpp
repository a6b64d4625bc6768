/// \file fpga.cpp
/// `fpga-sim`: closed loop on one thread through the cycle-level simulator.
///
/// Each operation (a round) prices one chunk of the paper-scenario book on
/// each of the four Table I engines and `multi-5` in turn. The host time per
/// round is what the simulator costs; the modelled figures
/// (kernel cycles, modelled options/s) are deterministic, so every repeat of
/// an (engine, chunk) pair must reproduce them exactly, and the paper's
/// 512-option Table I book must reproduce the values frozen from the seed
/// commit.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "engines/registry.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

namespace {

using namespace cdsflow;

const char* const kEngines[] = {"xilinx-baseline", "dataflow",
                                "dataflow-interoption", "vectorised",
                                "multi-5"};
constexpr std::size_t kNumEngines = 5;

/// Table I at 512 options (paper_scenario(512), its default seed), as the
/// commit that introduced this benchmark models it: kernel cycles and
/// options/s (3,454.53 / 7,344.77 / 13,196.2 / 26,430.5 rounded). A change
/// here is a model change, not a performance change.
struct Frozen {
  const char* engine;
  std::uint64_t kernel_cycles;
  double modelled_opts_per_s;
};
const Frozen kTable1[] = {
    {"xilinx-baseline", 44458943, 3454.5284624200135},
    {"dataflow", 20908404, 7344.7708502264659},
    {"dataflow-interoption", 11635287, 13196.19304264056},
    {"vectorised", 5807041, 26430.469127405293},
};

std::vector<std::unique_ptr<engine::Engine>> make_engines(
    const workload::Scenario& scenario) {
  std::vector<std::unique_ptr<engine::Engine>> engines;
  for (const char* name : kEngines) {
    engines.push_back(
        engine::make_engine(name, scenario.interest, scenario.hazard));
  }
  return engines;
}

struct Modelled {
  std::uint64_t cycles = 0;
  double opts_per_s = 0.0;
  bool seen = false;
};

}  // namespace

Result run_fpga_sim(const Options& opt) {
  Result r;
  r.workload = "fpga-sim";
  r.traced = opt.trace;

  const std::size_t chunk = opt.smoke ? 8 : 32;
  const std::size_t book_size = opt.smoke ? 64 : 1024;
  const auto t_gen = now_ns();
  const workload::Scenario scenario =
      workload::paper_scenario(book_size, 1000 + opt.seed);
  const std::size_t n_chunks = book_size / chunk;
  std::vector<std::vector<cds::CdsOption>> chunks(n_chunks);
  for (std::size_t c = 0; c < n_chunks; ++c) {
    chunks[c].assign(scenario.options.begin() + c * chunk,
                     scenario.options.begin() + (c + 1) * chunk);
  }
  r.put("gen_s", seconds_between(t_gen, now_ns()), "s");

  // Set-up: engine construction plus one warm-up chunk per engine, repeated
  // and reported as the median.
  std::vector<double> setup, construct;
  std::vector<std::unique_ptr<engine::Engine>> engines;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    engines.clear();
    const auto t0 = now_ns();
    engines = make_engines(scenario);
    const auto t1 = now_ns();
    for (auto& e : engines) e->price(chunks[0]);
    const auto t2 = now_ns();
    construct.push_back(seconds_between(t0, t1));
    setup.push_back(seconds_between(t0, t2));
  }
  r.set("setup_s", median(setup), "s");
  r.put("engines.setup_s", median(construct), "s");

  std::vector<Modelled> expected(kNumEngines * n_chunks);
  std::vector<double> engine_wall(kNumEngines, 0.0);
  std::vector<double> engine_cycles(kNumEngines, 0.0);
  std::uint64_t mismatches = 0;

  // One operation is a round: one chunk through all five engines in turn.
  auto run_loop = [&](double seconds, Tracer& tracer,
                      std::vector<double>& round_us, std::uint64_t& ops,
                      std::uint64_t& options_done) -> double {
    const auto t0 = now_ns();
    const auto deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t root =
        tracer.add("fpga-sim.loop", "unattributed", t0, 0);
    for (std::size_t round = 0; now_ns() < deadline; ++round) {
      const std::size_t c = round % n_chunks;
      const auto start = now_ns();
      for (std::size_t e = 0; e < kNumEngines; ++e) {
        const auto a = now_ns();
        const engine::PricingRun run = engines[e]->price(chunks[c]);
        const auto b = now_ns();
        tracer.add(kEngines[e], "sim", a, b, root);
        engine_wall[e] += seconds_between(a, b);
        engine_cycles[e] += static_cast<double>(run.kernel_cycles);
        ++ops;
        options_done += chunks[c].size();
        Modelled& want = expected[e * n_chunks + c];
        if (!want.seen) {
          want = {run.kernel_cycles, run.options_per_second, true};
        } else if (want.cycles != run.kernel_cycles ||
                   want.opts_per_s != run.options_per_second ||
                   run.results.size() != chunks[c].size()) {
          ++mismatches;
        }
      }
      round_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
    }
    tracer.close(root);
    return seconds_between(t0, now_ns());
  };

  double overhead_base = 0.0;
  if (opt.trace) {
    // Untraced reference half for the tracing overhead.
    Tracer off(false);
    std::vector<double> lat;
    std::uint64_t ops = 0, done = 0;
    const double wall = run_loop(opt.seconds / 2, off, lat, ops, done);
    overhead_base = static_cast<double>(done) / wall;
    std::fill(engine_wall.begin(), engine_wall.end(), 0.0);
    std::fill(engine_cycles.begin(), engine_cycles.end(), 0.0);
  }
  Tracer tracer(opt.trace);
  std::vector<double> round_us;
  std::uint64_t ops = 0, options_done = 0;
  const double wall = run_loop(opt.trace ? opt.seconds / 2 : opt.seconds,
                               tracer, round_us, ops, options_done);
  const double opts_per_s = static_cast<double>(options_done) / wall;
  r.set("opts_per_s", opts_per_s, "opts/s");
  r.set("p50_us", median(round_us), "us");
  r.set("p75_us", pct(round_us, 75.0), "us");
  r.put("round_p99_us", pct(round_us, 99.0), "us");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.put("sim_opts_per_s", opts_per_s, "opts/s");
  r.put("rounds", static_cast<double>(round_us.size()), "count");
  r.put("chunk_options", static_cast<double>(chunk), "count");
  for (std::size_t e = 0; e < kNumEngines; ++e) {
    r.put(std::string("sim.") + kEngines[e] + ".cycles_per_wall_s",
          engine_wall[e] > 0 ? engine_cycles[e] / engine_wall[e] : 0.0,
          "cycles/s");
  }

  r.attempted = ops;
  r.fail(mismatches, "modelled figures did not repeat for an (engine, chunk)");

  // Gate: Table I at 512 options reproduces the frozen modelled figures.
  {
    const workload::Scenario paper = workload::paper_scenario(512);
    for (const Frozen& row : kTable1) {
      auto engine = engine::make_engine(row.engine, paper.interest,
                                        paper.hazard);
      const engine::PricingRun run = engine->price(paper.options);
      const std::string key = std::string("sim.") + row.engine;
      r.put(key + ".kernel_cycles", static_cast<double>(run.kernel_cycles),
            "cycles");
      r.put(key + ".modelled_opts_per_s", run.options_per_second, "opts/s");
      const bool ok =
          run.kernel_cycles == row.kernel_cycles &&
          std::fabs(run.options_per_second - row.modelled_opts_per_s) <=
              1e-12 * row.modelled_opts_per_s;
      ++r.attempted;
      if (!ok) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "Table I %s: modelled %.6g opts/s, frozen %.6g",
                      row.engine, run.options_per_second,
                      row.modelled_opts_per_s);
        r.fail(1, buf);
      }
    }
  }

  if (opt.trace) {
    r.ledger = build_ledger(tracer.spans());
    r.spans = tracer.spans().size();
    r.trace_overhead_frac = overhead_base / opts_per_s - 1.0;
    if (!opt.spans_path.empty()) {
      write_spans(opt.spans_path, tracer.spans());
    }
  }
  return r;
}

}  // namespace perfbench
