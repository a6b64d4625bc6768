/// \file bench_service.cpp
/// Multi-tenant pricing-service bench over a loopback unix-domain socket,
/// reported as JSON.
///
/// N tenants replay seeded feeds concurrently (one client thread each,
/// pipelined requests) against a PricingService on the socket server. The
/// run measures end-to-end request latency (admission arrival to response
/// harvest, the service's own clock) per tenant and in aggregate, and
/// gates on the tentpole bit-identity contract: every tenant's concatenated
/// response spreads must be bit-identical to driving the identical event
/// sequence through a StreamRuntime directly. The per-tenant latency CDF
/// is written next to the JSON (scripts/bench_diff.py tracks the JSON
/// percentiles across commits).
///
/// Usage: bench_service [n_events_per_tenant] [n_tenants] [out.json]
///                      [cdf.csv]
///   defaults: 16384 3 BENCH_service.json BENCH_service_latency_cdf.csv

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/format.hpp"
#include "common/stats.hpp"
#include "io/csv.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "runtime/stream_runtime.hpp"
#include "service/service.hpp"
#include "workload/curves.hpp"
#include "workload/feed.hpp"

namespace {

using namespace cdsflow;

struct SlicedStep {
  bool quote = false;
  std::uint32_t request = 0;
  std::vector<cds::CdsOption> options;
  std::uint32_t knot = 0;
  double rate = 0.0;
};

/// Same slicing as tools/cdsflow_cli.cpp client-replay and
/// tests/test_service.cpp: hazard updates flush the open request so both
/// sides of the bit-identity comparison see the identical event order.
std::vector<SlicedStep> slice_feed(
    const std::vector<workload::QuoteFeedEvent>& feed,
    std::size_t request_size) {
  std::vector<SlicedStep> steps;
  std::uint32_t next_request = 1;
  SlicedStep open;
  auto flush = [&] {
    if (open.options.empty()) return;
    open.request = next_request++;
    steps.push_back(std::move(open));
    open = {};
  };
  for (const auto& event : feed) {
    if (event.kind == workload::QuoteFeedEvent::Kind::kHazardQuote) {
      flush();
      SlicedStep quote;
      quote.quote = true;
      quote.knot = static_cast<std::uint32_t>(event.knot);
      quote.rate = event.rate;
      steps.push_back(std::move(quote));
    } else {
      open.options.push_back(event.option);
      if (open.options.size() == request_size) flush();
    }
  }
  flush();
  return steps;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdsflow;
  const std::size_t n_events =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 16384;
  const std::size_t n_tenants =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 3;
  const std::string out_path = argc > 3 ? argv[3] : "BENCH_service.json";
  const std::string cdf_path =
      argc > 4 ? argv[4] : "BENCH_service_latency_cdf.csv";
  constexpr std::size_t kRequestSize = 64;

  const auto interest = workload::paper_interest_curve();
  const auto hazard = workload::paper_hazard_curve();

  std::cout << "== Pricing service: " << n_tenants << " tenant(s) x "
            << n_events << " events over a loopback socket ==\n\n";

  // Per-tenant sliced feeds (independent split-tree streams of one seed).
  std::vector<std::vector<SlicedStep>> feeds;
  for (std::size_t t = 0; t < n_tenants; ++t) {
    workload::QuoteFeedSpec spec;
    spec.events = n_events;
    spec.hazard_update_every = 64;
    spec.book.maturity_tenor_grid = {1.0, 3.0, 5.0, 7.0, 10.0};
    spec.seed = 7;
    spec.tenant = static_cast<std::uint32_t>(t + 1);
    feeds.push_back(slice_feed(workload::make_quote_feed(spec, hazard),
                               kRequestSize));
  }

  runtime::StreamConfig stream;
  stream.engine = "cpu-batch";
  stream.lanes = 2;
  stream.max_batch = 256;
  stream.max_wait_us = 200;

  service::ServiceConfig config;
  config.stop_when_idle = true;
  for (std::size_t t = 0; t < n_tenants; ++t) {
    service::TenantSpec spec;
    spec.id = static_cast<std::uint32_t>(t + 1);
    spec.name = "tenant-" + std::to_string(t + 1);
    spec.deadline = {"batch", 2.0, 8.0};  // no shedding: throughput run
    spec.stream = stream;
    spec.fit.engine_name = stream.engine;
    spec.fit.watts = 1.0;
    spec.fit.options_per_second = 1e12;  // generous: admission never sheds
    config.tenants.push_back(std::move(spec));
  }

  const std::string socket_path =
      "/tmp/cdsflow-bench-" + std::to_string(::getpid()) + ".sock";
  net::Server server({socket_path});
  service::PricingService pricing(config, interest, hazard);
  std::thread loop([&] { server.run(pricing); });

  // One pipelined client per tenant; responses arrive in request order.
  // All connect before any sends: the idle stop ends the loop once the
  // connection count drops to zero, so a tenant finishing before another
  // has connected would strand the late one.
  std::vector<std::vector<cds::SpreadResult>> responses(n_tenants);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<net::Client> connected;
  for (std::size_t t = 0; t < n_tenants; ++t) {
    connected.push_back(net::Client::connect_unix(socket_path));
  }
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < n_tenants; ++t) {
    clients.emplace_back([&, t] {
      const auto tenant = static_cast<std::uint32_t>(t + 1);
      net::Client client = std::move(connected[t]);
      std::size_t n_requests = 0;
      for (const auto& step : feeds[t]) {
        if (step.quote) {
          client.send(net::encode_quote_update(tenant, step.knot, step.rate));
        } else {
          client.send(net::encode_price_request(tenant, step.request,
                                                step.options));
          ++n_requests;
        }
      }
      for (std::size_t i = 0; i < n_requests; ++i) {
        const net::Frame frame = client.read_frame();
        if (frame.type != net::FrameType::kResult) {
          std::cerr << "tenant " << tenant << " request rejected: "
                    << net::to_string(frame.reason) << '\n';
          std::exit(1);
        }
        responses[t].insert(responses[t].end(), frame.results.begin(),
                            frame.results.end());
      }
      client.close();
    });
  }
  for (auto& c : clients) c.join();
  loop.join();  // idle-stop: all clients done, nothing pending
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Bit-identity gate: each tenant's responses vs a directly-driven
  // StreamRuntime over the identical event sequence.
  bool identical = true;
  for (std::size_t t = 0; t < n_tenants && identical; ++t) {
    runtime::StreamRuntime direct(interest, hazard, stream);
    for (const auto& step : feeds[t]) {
      if (step.quote) {
        direct.push_hazard_quote(step.knot, step.rate);
      } else {
        for (const auto& option : step.options) direct.push(option);
      }
    }
    const auto report = direct.finish();
    identical = responses[t].size() == report.run.results.size();
    for (std::size_t i = 0; identical && i < responses[t].size(); ++i) {
      identical =
          responses[t][i].id == report.run.results[i].id &&
          std::bit_cast<std::uint64_t>(responses[t][i].spread_bps) ==
              std::bit_cast<std::uint64_t>(report.run.results[i].spread_bps);
    }
    if (!identical) {
      std::cout << "tenant " << (t + 1)
                << ": responses NOT bit-identical to direct runtime\n";
    }
  }

  // Latency: the service's own per-request ingest-to-response clock.
  std::vector<double> all_latency;
  std::size_t total_requests = 0;
  std::size_t total_options = 0;
  for (std::size_t t = 0; t < n_tenants; ++t) {
    const auto* session =
        pricing.session(static_cast<std::uint32_t>(t + 1));
    all_latency.insert(all_latency.end(), session->latency_us().begin(),
                       session->latency_us().end());
    total_requests += session->latency_us().size();
    total_options += responses[t].size();
  }
  const double p50 = percentile(all_latency, 50.0);
  const double p99 = percentile(all_latency, 99.0);
  const double requests_per_second = total_requests / wall;

  std::cout << "replayed " << total_requests << " request(s) ("
            << total_options << " options) across " << n_tenants
            << " tenant(s) in " << fixed(wall, 3) << " s: "
            << with_thousands(requests_per_second, 0) << " requests/s, "
            << with_thousands(total_options / wall, 0)
            << " options/s end-to-end\n"
            << "request latency: p50 " << fixed(p50, 1) << " us, p99 "
            << fixed(p99, 1) << " us\nbit-identical to direct StreamRuntime: "
            << (identical ? "yes" : "NO") << '\n';

  io::write_latency_cdf_csv(cdf_path, pricing.latency_rows());
  std::cout << "per-tenant latency CDF written to " << cdf_path << '\n';

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"service\",\n"
       << "  \"n_tenants\": " << n_tenants << ",\n"
       << "  \"n_events_per_tenant\": " << n_events << ",\n"
       << "  \"request_size\": " << kRequestSize << ",\n"
       << "  \"requests\": " << total_requests << ",\n"
       << "  \"options\": " << total_options << ",\n"
       << "  \"wall_seconds\": " << wall << ",\n"
       << "  \"requests_per_second\": " << requests_per_second << ",\n"
       << "  \"options_per_second\": " << total_options / wall << ",\n"
       << "  \"p50_request_us\": " << p50 << ",\n"
       << "  \"p99_request_us\": " << p99 << ",\n"
       << "  \"admitted\": " << pricing.stats().admitted << ",\n"
       << "  \"deferred\": " << pricing.stats().deferred << ",\n"
       << "  \"shed\": " << pricing.stats().shed << ",\n"
       << "  \"bit_identical_to_direct_runtime\": "
       << (identical ? "true" : "false") << "\n"
       << "}\n";
  std::ofstream out(out_path);
  out << json.str();
  std::cout << "JSON written to " << out_path << '\n';

  if (!identical) {
    std::cout << "FAIL: service responses not bit-identical\n";
  }
  return identical ? 0 : 1;
}
