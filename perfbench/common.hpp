/// \file common.hpp
/// Shared pieces of the repository benchmark program: clocks, sample
/// statistics, the in-memory span tracer and its per-layer ledger, and the
/// result record every workload fills.
///
/// The benchmark measures the library from outside: every span wraps a call
/// the benchmark makes into a layer's public API (or a duration that public
/// API reports back), never an instrumentation point inside `src/`.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "common/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

/// Peak resident set of this process so far, in MB (ru_maxrss is KiB).
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

inline double pct(const std::vector<double>& samples, double p) {
  return samples.empty() ? 0.0 : cdsflow::percentile(samples, p);
}

inline double median(const std::vector<double>& samples) {
  return pct(samples, 50.0);
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

/// FNV-style running fingerprint over 64-bit words of result bits, so a
/// long run can compare every output without keeping them all.
class BitHash {
 public:
  /// Mixes one integer (widened to 64 bits) into the hash.
  void add_value(std::uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001B3ULL;
    h_ ^= h_ >> 29;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// --- tracing ----------------------------------------------------------------

/// One timed interval. `layer` names the module the time belongs to
/// (cds, runtime, service, net, sim, gen, bench); a root span
/// (parent < 0) is the unit the ledger sums to -- its own self time is the
/// ledger's "unattributed" row.
struct Span {
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Single-threaded in-memory span recorder. Disabled tracers record nothing
/// and cost one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  std::int64_t add(const char* name, const char* layer, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent = -1,
                   std::uint64_t request = 0) {
    if (!enabled_) return -1;
    spans_.push_back({name, layer, start_ns, end_ns, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Ends a span added with end_ns 0 at the current time.
  void close(std::int64_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Per-layer self times over a span forest. Each instant of a root span is
/// attributed to the deepest span active then (the latest-started one among
/// equals, as spans of one request may overlap on different threads); time
/// the root alone covers is "unattributed". Rows therefore sum exactly to
/// `wall_s`, the summed duration of the roots.
struct Ledger {
  double wall_s = 0.0;
  std::map<std::string, double> self_s;  ///< layer -> seconds
};

inline Ledger build_ledger(const std::vector<Span>& spans) {
  const std::size_t n = spans.size();
  std::vector<int> depth(n, 0);
  std::vector<std::size_t> root(n);
  std::vector<std::vector<std::size_t>> members(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t p = spans[i].parent;  // parents precede children
    depth[i] = p < 0 ? 0 : depth[static_cast<std::size_t>(p)] + 1;
    root[i] = p < 0 ? i : root[static_cast<std::size_t>(p)];
    members[root[i]].push_back(i);
  }
  Ledger ledger;
  struct Event {
    std::int64_t t;
    bool open;
    std::size_t span;
  };
  std::vector<Event> events;
  std::vector<std::size_t> active;
  for (std::size_t r = 0; r < n; ++r) {
    if (spans[r].parent >= 0) continue;
    const std::int64_t lo = spans[r].start_ns;
    const std::int64_t hi = std::max(spans[r].end_ns, lo);
    ledger.wall_s += static_cast<double>(hi - lo) * 1e-9;
    events.clear();
    for (const std::size_t m : members[r]) {
      const std::int64_t a = std::clamp(spans[m].start_ns, lo, hi);
      const std::int64_t b = std::clamp(spans[m].end_ns, lo, hi);
      if (b <= a) continue;
      events.push_back({a, true, m});
      events.push_back({b, false, m});
    }
    std::sort(events.begin(), events.end(),
              [](const Event& x, const Event& y) {
                return x.t != y.t ? x.t < y.t : (!x.open && y.open);
              });
    active.clear();
    std::int64_t prev = lo;
    for (const Event& e : events) {
      if (e.t > prev && !active.empty()) {
        std::size_t best = active.front();
        for (const std::size_t a : active) {
          if (depth[a] > depth[best] ||
              (depth[a] == depth[best] &&
               spans[a].start_ns > spans[best].start_ns)) {
            best = a;
          }
        }
        const char* layer =
            spans[best].parent < 0 ? "unattributed" : spans[best].layer;
        ledger.self_s[layer] += static_cast<double>(e.t - prev) * 1e-9;
      }
      prev = std::max(prev, e.t);
      if (e.open) {
        active.push_back(e.span);
      } else {
        active.erase(std::find(active.begin(), active.end(), e.span));
      }
    }
  }
  return ledger;
}

/// The layers every ledger reports, in print order (a layer a workload
/// never enters reports 0).
inline const std::vector<std::string>& ledger_layers() {
  static const std::vector<std::string> kLayers = {
      "cds", "runtime", "service", "net",
      "sim", "gen",     "bench",   "unattributed"};
  return kLayers;
}

/// Writes spans as JSON lines (one object per span), at most 200,000.
inline void write_spans(const std::string& path,
                        const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const std::size_t n = std::min<std::size_t>(200000, spans.size());
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                 i, s.name, s.layer, static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fclose(f);
}

/// Keeps every CPU out of idle while a workload runs: one spinning thread
/// per CPU at SCHED_IDLE priority, which any runnable thread of the program
/// preempts at once. On a virtual machine an idle virtual CPU is halted, and
/// waking it costs milliseconds at the host's discretion; without this,
/// that wake-up latency (not the program) sets every open-loop tail and
/// much of the run-to-run spread.
class KeepAwake {
 public:
  explicit KeepAwake(unsigned threads);
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// --- results ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `e2e` holds the end-to-end metrics (the
/// names BENCHMARK.json lists), `detail` every further figure the workload
/// measured (workload-specific end-to-end figures and, in a traced run, the
/// per-layer figures), `ledger` the traced run's per-layer self times.
struct Result {
  std::string workload;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> detail;
  std::vector<std::string> notes;
  bool traced = false;
  Ledger ledger;
  double trace_overhead_frac = 0.0;
  std::size_t spans = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    e2e[name] = {value, unit};
  }
  void put(const std::string& name, double value, const std::string& unit) {
    detail[name] = {value, unit};
  }
  void fail(std::uint64_t n, const std::string& why) {
    if (n == 0) return;
    failed += n;
    correct = false;
    notes.push_back(why);
  }
};

/// Set-up is repeated this many times per run and reported as the median.
constexpr int kSetupRepeats = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_path;
};

Result run_eod_batch(const Options& options);
Result run_quote_stream(const Options& options);
Result run_fpga_sim(const Options& options);

}  // namespace perfbench
