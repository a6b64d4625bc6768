/// \file cdsbench.cpp
/// The repository benchmark program. Runs one workload for a fixed time and
/// prints its figures, then one JSON line with everything it measured.
///
/// Usage: cdsbench --workload <eod-batch|quote-stream|fpga-sim> --seed <n>
///                 --seconds <s> [--trace 0|1] [--smoke] [--spans <path>]
///
/// perfbench/run.py builds this program, adds the host fingerprint and turns
/// the JSON line into the benchmark's result; run it through run.py.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include <pthread.h>
#include <sched.h>

#include "cds/vector_kernel.hpp"
#include "common.hpp"

namespace perfbench {

KeepAwake::KeepAwake(unsigned threads) {
  for (unsigned i = 0; i < threads; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

KeepAwake::~KeepAwake() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& t : threads_) t.join();
}

namespace {

void json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

void json_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void json_metrics(std::string& out, const std::map<std::string, Metric>& m) {
  out += '{';
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ',';
    first = false;
    json_string(out, name);
    out += ":{\"value\":";
    json_number(out, metric.value);
    out += ",\"unit\":";
    json_string(out, metric.unit);
    out += '}';
  }
  out += '}';
}

std::string to_json(const Result& r) {
  std::string out = "{\"workload\":";
  json_string(out, r.workload);
  out += ",\"correct\":";
  out += r.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"simd_level\":";
  json_string(out, cdsflow::cds::simd::to_string(
                       cdsflow::cds::simd::active_level()));
  out += ",\"traced\":";
  out += r.traced ? "true" : "false";
  out += ",\"e2e\":";
  json_metrics(out, r.e2e);
  out += ",\"detail\":";
  json_metrics(out, r.detail);
  if (r.traced) {
    out += ",\"ledger\":{\"wall_s\":";
    json_number(out, r.ledger.wall_s);
    out += ",\"self_s\":{";
    bool first = true;
    for (const auto& layer : ledger_layers()) {
      if (!first) out += ',';
      first = false;
      json_string(out, layer);
      out += ':';
      const auto it = r.ledger.self_s.find(layer);
      json_number(out, it == r.ledger.self_s.end() ? 0.0 : it->second);
    }
    out += "}},\"trace_overhead_frac\":";
    json_number(out, r.trace_overhead_frac);
    out += ",\"spans\":" + std::to_string(r.spans);
  }
  out += ",\"notes\":[";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    if (i > 0) out += ',';
    json_string(out, r.notes[i]);
  }
  out += "]}";
  return out;
}

void print_human(const Result& r) {
  std::printf("== %s%s ==\n", r.workload.c_str(),
              r.traced ? " (traced)" : "");
  for (const auto& [name, m] : r.e2e) {
    std::printf("  %-40s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, m] : r.detail) {
    std::printf("  %-40s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  if (r.traced) {
    std::printf("  ledger (self time, wall %.6f s):\n", r.ledger.wall_s);
    for (const auto& layer : ledger_layers()) {
      const auto it = r.ledger.self_s.find(layer);
      const double v = it == r.ledger.self_s.end() ? 0.0 : it->second;
      std::printf("    %-14s %12.6f s %7.2f%%\n", layer.c_str(), v,
                  r.ledger.wall_s > 0 ? 100.0 * v / r.ledger.wall_s : 0.0);
    }
    std::printf("  tracing overhead %.2f%% over %zu spans\n",
                100.0 * r.trace_overhead_frac, r.spans);
  }
  for (const auto& note : r.notes) std::printf("  FAIL: %s\n", note.c_str());
  std::printf("  correct=%s attempted=%llu failed=%llu\n",
              r.correct ? "yes" : "NO",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
}

int usage() {
  std::fprintf(stderr,
               "usage: cdsbench --workload <eod-batch|quote-stream|fpga-sim> "
               "--seed <n> --seconds <s> [--trace 0|1] [--smoke] "
               "[--spans <path>]\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--spans" && has_value) {
      opt.spans_path = argv[++i];
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      return usage();
    }
  }
  if (!(opt.seconds > 0.0)) return usage();
  try {
    Result r;
    const KeepAwake awake(std::max(1u, std::thread::hardware_concurrency()));
    if (opt.workload == "eod-batch") {
      r = run_eod_batch(opt);
    } else if (opt.workload == "quote-stream") {
      r = run_quote_stream(opt);
    } else if (opt.workload == "fpga-sim") {
      r = run_fpga_sim(opt);
    } else {
      return usage();
    }
    print_human(r);
    std::printf("%s\n", to_json(r).c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cdsbench: %s\n", e.what());
    return 1;
  }
}
