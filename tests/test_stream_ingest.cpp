/// \file test_stream_ingest.cpp
/// The streaming ingest runtime: bounded-queue backpressure (blocking vs
/// drop-oldest, both counted), request-granular push_span() against
/// one-by-one pushes, micro-batch flush policy on a fake clock,
/// deterministic merge of out-of-order batch completions, and end-to-end
/// equivalence of the concurrent stream with a serial replay -- hazard-quote
/// updates included.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <random>
#include <thread>
#include <vector>

#include "cds/batch_pricer.hpp"
#include "cds/stream_pricer.hpp"
#include "common/error.hpp"
#include "runtime/ingest_queue.hpp"
#include "runtime/stream_runtime.hpp"
#include "workload/curves.hpp"
#include "workload/feed.hpp"

namespace cdsflow {
namespace {

using runtime::BackpressurePolicy;
using runtime::IngestQueue;
using runtime::MicroBatcher;
using runtime::QuoteEvent;
using runtime::StreamClock;

cds::TermStructure test_interest() {
  return workload::paper_interest_curve(64, 11);
}
cds::TermStructure test_hazard() { return workload::paper_hazard_curve(64, 23); }

cds::CdsOption option_with_id(std::int32_t id) {
  cds::CdsOption option;
  option.id = id;
  option.maturity_years = 5.0;
  return option;
}

// --- ingest queue -----------------------------------------------------------

TEST(IngestQueue, BlockPolicyIsLosslessAndCountsWaits) {
  IngestQueue queue(2, BackpressurePolicy::kBlock);
  std::thread producer([&queue] {
    for (std::int32_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(queue.push(runtime::option_event(option_with_id(i))));
    }
    queue.close();
  });
  // Let the producer actually hit the capacity wall before draining.
  for (int spin = 0; spin < 1000 && queue.stats().blocked_pushes == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<QuoteEvent> events;
  while (queue.pop_all(events) > 0) {
  }
  producer.join();

  ASSERT_EQ(events.size(), 6u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].sequence, i);
    EXPECT_EQ(events[i].option.id, static_cast<std::int32_t>(i));
  }
  const auto stats = queue.stats();
  EXPECT_EQ(stats.accepted, 6u);
  EXPECT_EQ(stats.dropped_oldest, 0u);
  EXPECT_GE(stats.blocked_pushes, 1u);
  EXPECT_EQ(stats.high_water, 2u);
  EXPECT_TRUE(queue.drained());
}

TEST(IngestQueue, BlockedPushChargesWaitToIngestLatency) {
  // Regression: the ingest stamp used to be taken *after* the kBlock
  // capacity wait, so time an event spent blocked by backpressure was
  // invisible to ingest-to-result latency and deadline accounting. The
  // stamp is now taken on entry to push(): with a capacity-1 queue and a
  // deliberately slow consumer, the blocked event's latency must include
  // the time it spent parked.
  IngestQueue queue(1, BackpressurePolicy::kBlock);
  ASSERT_TRUE(queue.push(runtime::option_event(option_with_id(0))));
  std::thread producer([&queue] {
    ASSERT_TRUE(queue.push(runtime::option_event(option_with_id(1))));
  });
  // Wait until the producer is provably parked on the full queue.
  for (int spin = 0; spin < 2000 && queue.stats().blocked_pushes == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(queue.stats().blocked_pushes, 1u);
  // Slow consumer: hold the queue full while the producer stays blocked.
  const auto blocked_for = std::chrono::milliseconds(50);
  std::this_thread::sleep_for(blocked_for);
  std::vector<QuoteEvent> popped;
  // Frees space, releases the producer.
  ASSERT_EQ(queue.pop_all(popped), 1u);
  producer.join();

  popped.clear();
  ASSERT_EQ(queue.pop_all(popped), 1u);
  const QuoteEvent& blocked = popped.front();
  EXPECT_EQ(blocked.option.id, 1);
  const auto latency = StreamClock::now() - blocked.ingest;
  // Pre-fix this measured ~0 (stamped after the wait); post-fix it covers
  // the whole blocked interval. Allow generous slack under sanitizers.
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(latency),
            blocked_for - std::chrono::milliseconds(5));
}

TEST(IngestQueue, DropOldestEvictsStalestAndCounts) {
  IngestQueue queue(4, BackpressurePolicy::kDropOldest);
  for (std::int32_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(queue.push(runtime::option_event(option_with_id(i))));
  }
  EXPECT_EQ(queue.size(), 4u);
  const auto stats = queue.stats();
  EXPECT_EQ(stats.accepted, 10u);
  EXPECT_EQ(stats.dropped_oldest, 6u);
  EXPECT_EQ(stats.blocked_pushes, 0u);

  queue.close();
  // The survivors are the newest four, still in ingest order.
  std::vector<QuoteEvent> survivors;
  ASSERT_EQ(queue.pop_all(survivors), 4u);
  for (std::int32_t want = 6; want < 10; ++want) {
    const QuoteEvent& event = survivors[static_cast<std::size_t>(want - 6)];
    EXPECT_EQ(event.option.id, want);
    EXPECT_EQ(event.sequence, static_cast<std::uint64_t>(want));
  }
  EXPECT_EQ(queue.pop_all(survivors), 0u);
  EXPECT_TRUE(queue.drained());
}

TEST(IngestQueue, CloseRejectsPushesAndDrains) {
  IngestQueue queue(8, BackpressurePolicy::kBlock);
  EXPECT_TRUE(queue.push(runtime::option_event(option_with_id(0))));
  queue.close();
  EXPECT_FALSE(queue.push(runtime::option_event(option_with_id(1))));
  EXPECT_EQ(queue.stats().rejected_closed, 1u);
  EXPECT_FALSE(queue.drained());  // one event still queued
  std::vector<QuoteEvent> events;
  EXPECT_EQ(queue.pop_all(events), 1u);
  EXPECT_TRUE(queue.drained());
  EXPECT_EQ(queue.pop_all(events), 0u);
}

TEST(IngestQueue, PopAllTimesOutOnEmptyOpenQueue) {
  IngestQueue queue(4, BackpressurePolicy::kBlock);
  std::vector<QuoteEvent> events;
  EXPECT_EQ(queue.pop_all(events, std::chrono::milliseconds(1)), 0u);
  EXPECT_TRUE(events.empty());
  EXPECT_FALSE(queue.drained());  // timed out, not drained
}

// --- push_span: one handoff per request -------------------------------------

std::vector<cds::CdsOption> options_with_ids(std::int32_t first,
                                             std::size_t n) {
  std::vector<cds::CdsOption> options;
  for (std::size_t i = 0; i < n; ++i) {
    options.push_back(option_with_id(first + static_cast<std::int32_t>(i)));
  }
  return options;
}

/// Pops everything a closed queue still holds.
std::vector<QuoteEvent> drain_closed(IngestQueue& queue) {
  std::vector<QuoteEvent> events;
  while (queue.pop_all(events) > 0) {
  }
  return events;
}

void expect_same_stats(const runtime::IngestQueueStats& a,
                       const runtime::IngestQueueStats& b) {
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.dropped_oldest, b.dropped_oldest);
  EXPECT_EQ(a.rejected_closed, b.rejected_closed);
  EXPECT_EQ(a.blocked_pushes, b.blocked_pushes);
  EXPECT_EQ(a.high_water, b.high_water);
}

void expect_same_events(const std::vector<QuoteEvent>& a,
                        const std::vector<QuoteEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].option.id, b[i].option.id) << "at " << i;
    EXPECT_EQ(a[i].sequence, b[i].sequence) << "at " << i;
  }
}

TEST(IngestQueue, PushSpanAssignsContiguousSequencesAndOneIngestStamp) {
  IngestQueue queue(16, BackpressurePolicy::kBlock);
  ASSERT_TRUE(queue.push(runtime::option_event(option_with_id(100))));
  const auto request = options_with_ids(0, 5);
  ASSERT_TRUE(queue.push_span(request));
  queue.close();
  const auto events = drain_closed(queue);

  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].option.id, 100);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].sequence, i);
  }
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, QuoteEvent::Kind::kOption);
    EXPECT_EQ(events[i].option.id, static_cast<std::int32_t>(i - 1));
    EXPECT_EQ(events[i].ingest, events[1].ingest) << "at " << i;
  }
  EXPECT_LE(events[0].ingest, events[1].ingest);
}

TEST(IngestQueue, PushSpanStatsMatchOneByOnePushes) {
  IngestQueue spans(8, BackpressurePolicy::kBlock);
  IngestQueue singles(8, BackpressurePolicy::kBlock);
  const auto request = options_with_ids(0, 5);
  ASSERT_TRUE(spans.push_span(request));
  for (const auto& option : request) {
    ASSERT_TRUE(singles.push(runtime::option_event(option)));
  }
  expect_same_stats(spans.stats(), singles.stats());

  // After close every option of a span is rejected, as a push each would be.
  spans.close();
  singles.close();
  EXPECT_FALSE(spans.push_span(request));
  for (const auto& option : request) {
    EXPECT_FALSE(singles.push(runtime::option_event(option)));
  }
  EXPECT_EQ(spans.stats().rejected_closed, 5u);
  expect_same_stats(spans.stats(), singles.stats());
  expect_same_events(drain_closed(spans), drain_closed(singles));
}

TEST(IngestQueue, PushSpanUnderDropOldestEqualsOneByOnePushes) {
  // A span that overflows a partly full queue, and one longer than the
  // whole capacity.
  for (const std::size_t queued : {2u, 0u}) {
    SCOPED_TRACE(queued);
    IngestQueue spans(4, BackpressurePolicy::kDropOldest);
    IngestQueue singles(4, BackpressurePolicy::kDropOldest);
    const auto head = options_with_ids(0, queued);
    const auto request = options_with_ids(50, 7);
    for (const auto& option : head) {
      ASSERT_TRUE(spans.push(runtime::option_event(option)));
      ASSERT_TRUE(singles.push(runtime::option_event(option)));
    }
    EXPECT_TRUE(spans.push_span(request));
    for (const auto& option : request) {
      EXPECT_TRUE(singles.push(runtime::option_event(option)));
    }
    expect_same_stats(spans.stats(), singles.stats());
    EXPECT_EQ(spans.stats().dropped_oldest, queued + 7 - 4);
    spans.close();
    singles.close();
    const auto survivors = drain_closed(spans);
    expect_same_events(survivors, drain_closed(singles));
    ASSERT_EQ(survivors.size(), 4u);
    EXPECT_EQ(survivors.back().option.id, 56);
  }
}

TEST(IngestQueue, CloseMidSpanRejectsTheRest) {
  IngestQueue queue(4, BackpressurePolicy::kBlock);
  const auto request = options_with_ids(0, 10);
  std::atomic<bool> pushed{true};
  std::thread producer(
      [&queue, &request, &pushed] { pushed = queue.push_span(request); });
  // No consumer: the span fills the queue and parks on the fifth option.
  for (int spin = 0; spin < 2000 && queue.stats().blocked_pushes == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(queue.stats().blocked_pushes, 1u);
  queue.close();
  producer.join();

  EXPECT_FALSE(pushed);
  const auto stats = queue.stats();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.rejected_closed, 6u);
  const auto events = drain_closed(queue);
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].option.id, static_cast<std::int32_t>(i));
  }
  EXPECT_TRUE(queue.drained());
}

TEST(IngestQueue, BlockSpanOfThreeCapacitiesCompletesWithLiveConsumer) {
  // The span must wake the consumer before it parks for space, or a span
  // larger than the queue would wait forever.
  constexpr std::size_t kCapacity = 16;
  IngestQueue queue(kCapacity, BackpressurePolicy::kBlock);
  std::vector<QuoteEvent> events;
  std::thread consumer([&queue, &events] {
    while (queue.pop_all(events) > 0) {
    }
  });
  const auto request = options_with_ids(0, 3 * kCapacity);
  EXPECT_TRUE(queue.push_span(request));
  queue.close();
  consumer.join();

  ASSERT_EQ(events.size(), request.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].sequence, i);
    EXPECT_EQ(events[i].option.id, static_cast<std::int32_t>(i));
  }
  const auto stats = queue.stats();
  EXPECT_EQ(stats.accepted, request.size());
  EXPECT_GE(stats.blocked_pushes, 1u);
  EXPECT_EQ(stats.high_water, kCapacity);
}

TEST(IngestQueue, MultiProducerSpansUnderBlockAreLosslessAndOrdered) {
  // Stress for the sanitizer builds: four producers push 64-option
  // requests into a queue smaller than one request while the consumer
  // takes everything queued at each pop_all.
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kRequests = 50;
  constexpr std::size_t kRequestOptions = 64;
  IngestQueue queue(8, BackpressurePolicy::kBlock);
  std::vector<QuoteEvent> events;
  std::thread consumer([&queue, &events] {
    while (queue.pop_all(events) > 0) {
    }
  });
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::size_t r = 0; r < kRequests; ++r) {
        const auto first =
            static_cast<std::int32_t>((p * kRequests + r) * kRequestOptions);
        ASSERT_TRUE(queue.push_span(options_with_ids(first, kRequestOptions)));
      }
    });
  }
  for (auto& producer : producers) producer.join();
  queue.close();
  consumer.join();

  ASSERT_EQ(events.size(), kProducers * kRequests * kRequestOptions);
  std::vector<std::int32_t> last_id(kProducers, -1);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].sequence, i);
    const auto id = events[i].option.id;
    const auto p = static_cast<std::size_t>(id) / (kRequests * kRequestOptions);
    ASSERT_LT(p, kProducers);
    EXPECT_GT(id, last_id[p]) << "producer " << p << " reordered at " << i;
    last_id[p] = id;
  }
  EXPECT_EQ(queue.stats().accepted, events.size());
  EXPECT_LE(queue.stats().high_water, 8u);
}

TEST(IngestQueue, RejectsZeroCapacity) {
  EXPECT_THROW(IngestQueue(0, BackpressurePolicy::kBlock), Error);
}

TEST(IngestQueue, PolicyNamesRoundTrip) {
  EXPECT_EQ(runtime::parse_backpressure_policy("block"),
            BackpressurePolicy::kBlock);
  EXPECT_EQ(runtime::parse_backpressure_policy("drop-oldest"),
            BackpressurePolicy::kDropOldest);
  EXPECT_STREQ(to_string(BackpressurePolicy::kDropOldest), "drop-oldest");
  EXPECT_THROW(runtime::parse_backpressure_policy("spill"), Error);
}

// --- micro-batcher (fake clock) ---------------------------------------------

QuoteEvent event_at(StreamClock::time_point ingest, std::int32_t id) {
  QuoteEvent event = runtime::option_event(option_with_id(id));
  event.ingest = ingest;
  return event;
}

TEST(MicroBatcher, FlushesOnMaxBatch) {
  const auto t0 = StreamClock::time_point(std::chrono::seconds(100));
  MicroBatcher batcher(3, std::chrono::microseconds(500));
  EXPECT_FALSE(batcher.add(event_at(t0, 0)));
  EXPECT_FALSE(batcher.add(event_at(t0, 1)));
  EXPECT_TRUE(batcher.add(event_at(t0, 2)));  // full: flush now
  const auto batch = batcher.take();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[2].option.id, 2);
  EXPECT_FALSE(batcher.open());
}

TEST(MicroBatcher, FlushesOnMaxWaitWithFakeClock) {
  const auto t0 = StreamClock::time_point(std::chrono::seconds(100));
  const auto wait = std::chrono::microseconds(500);
  MicroBatcher batcher(1024, wait);

  // Closed batcher: never due, a fresh event could wait the full budget.
  EXPECT_FALSE(batcher.due(t0));
  EXPECT_EQ(batcher.time_until_due(t0), wait);

  // The deadline anchors at the *oldest* event's ingest stamp.
  batcher.add(event_at(t0, 0));
  batcher.add(event_at(t0 + std::chrono::microseconds(400), 1));
  EXPECT_FALSE(batcher.due(t0 + std::chrono::microseconds(499)));
  EXPECT_EQ(batcher.time_until_due(t0 + std::chrono::microseconds(300)),
            std::chrono::microseconds(200));
  EXPECT_TRUE(batcher.due(t0 + std::chrono::microseconds(500)));
  EXPECT_EQ(batcher.time_until_due(t0 + std::chrono::microseconds(600)),
            StreamClock::duration::zero());

  EXPECT_EQ(batcher.take().size(), 2u);
  EXPECT_FALSE(batcher.due(t0 + std::chrono::seconds(1)));  // reset
}

TEST(MicroBatcher, RejectsDegenerateConfig) {
  EXPECT_THROW(MicroBatcher(0, std::chrono::microseconds(1)), Error);
  EXPECT_THROW(MicroBatcher(4, std::chrono::microseconds(-1)), Error);
}

// --- deterministic merge ----------------------------------------------------

runtime::stream_detail::BatchResult batch_result(std::size_t index,
                                                 std::int32_t first_id,
                                                 std::size_t n) {
  runtime::stream_detail::BatchResult result;
  result.index = index;
  for (std::size_t i = 0; i < n; ++i) {
    result.results.push_back(
        {first_id + static_cast<std::int32_t>(i), 100.0});
  }
  return result;
}

TEST(BatchCollector, MergesOutOfOrderCompletionsInBatchOrder) {
  runtime::stream_detail::BatchCollector collector;
  // Completion order 2, 0, 3, 1 -- the merge must not care.
  collector.put(batch_result(2, 20, 2));
  collector.put(batch_result(0, 0, 3));
  collector.put(batch_result(3, 30, 1));
  collector.put(batch_result(1, 10, 2));
  EXPECT_EQ(collector.count(), 4u);

  const auto merged = collector.take();
  ASSERT_EQ(merged.size(), 4u);
  std::vector<std::int32_t> ids;
  for (const auto& batch : merged) {
    for (const auto& r : batch.results) ids.push_back(r.id);
  }
  EXPECT_EQ(ids, (std::vector<std::int32_t>{0, 1, 2, 10, 11, 20, 21, 30}));
}

TEST(BatchCollector, DetectsLostBatch) {
  runtime::stream_detail::BatchCollector collector;
  collector.put(batch_result(0, 0, 1));
  collector.put(batch_result(2, 20, 1));  // index 1 never arrives
  EXPECT_THROW(collector.take(), Error);
}

TEST(BatchCollector, RejectsASecondPutOfOneIndex) {
  runtime::stream_detail::BatchCollector collector;
  collector.put(batch_result(0, 0, 1));
  EXPECT_THROW(collector.put(batch_result(0, 0, 1)), Error);
  EXPECT_EQ(collector.count(), 1u);
}

TEST(BatchCollector, PeekReadyFromTheMiddleOfTenThousandOutOfOrderPuts) {
  constexpr std::size_t kBatches = 10'000;
  constexpr std::size_t kGap = 7'000;  // withheld until the end
  std::vector<std::size_t> order(kBatches);
  for (std::size_t i = 0; i < kBatches; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(2024));

  runtime::stream_detail::BatchCollector collector;
  for (const std::size_t index : order) {
    if (index == kGap) continue;
    collector.put(batch_result(index, static_cast<std::int32_t>(index), 1));
  }
  EXPECT_EQ(collector.count(), kBatches - 1);

  // From the middle, the ready run stops at the gap...
  auto ready = collector.peek_ready(5'000);
  ASSERT_EQ(ready.size(), kGap - 5'000);
  for (std::size_t i = 0; i < ready.size(); ++i) {
    EXPECT_EQ(ready[i].index, 5'000 + i);
  }
  EXPECT_TRUE(collector.peek_ready(kGap).empty());
  // ...and runs to the end once the gap is filled.
  collector.put(batch_result(kGap, static_cast<std::int32_t>(kGap), 1));
  ready = collector.peek_ready(5'000);
  ASSERT_EQ(ready.size(), kBatches - 5'000);
  EXPECT_EQ(ready.back().index, kBatches - 1);
  EXPECT_TRUE(collector.peek_ready(kBatches).empty());

  // Peeking copies: take() still hands back every batch, in order.
  const auto merged = collector.take();
  ASSERT_EQ(merged.size(), kBatches);
  for (std::size_t i = 0; i < kBatches; ++i) {
    ASSERT_EQ(merged[i].index, i);
    ASSERT_EQ(merged[i].results.front().id, static_cast<std::int32_t>(i));
  }
}

// --- stream runtime end to end ----------------------------------------------

workload::QuoteFeedSpec small_feed_spec(std::size_t events,
                                        std::size_t update_every) {
  workload::QuoteFeedSpec spec;
  spec.events = events;
  spec.hazard_update_every = update_every;
  spec.book.maturity_tenor_grid = {1.0, 3.0, 5.0, 7.0, 10.0};
  spec.seed = 99;
  return spec;
}

/// Serial replay reference: one StreamPricer, events applied in feed order.
std::vector<cds::SpreadResult> replay_serially(
    const cds::TermStructure& interest, const cds::TermStructure& hazard,
    const std::vector<workload::QuoteFeedEvent>& feed) {
  cds::StreamPricer pricer(interest, hazard);
  std::vector<cds::SpreadResult> results;
  for (const auto& event : feed) {
    if (event.kind == workload::QuoteFeedEvent::Kind::kHazardQuote) {
      pricer.update_hazard_quote(event.knot, event.rate);
    } else {
      cds::SpreadResult out;
      pricer.price({&event.option, 1}, {&out, 1});
      results.push_back(out);
    }
  }
  return results;
}

// --- per-tenant feed independence -------------------------------------------

/// Collapses a feed into a comparable fingerprint: the exact doubles that the
/// generator draws (arrivals, option fields, update rates). Bit equality of
/// fingerprints means bit equality of feeds.
std::vector<double> feed_fingerprint(
    const std::vector<workload::QuoteFeedEvent>& feed) {
  std::vector<double> fp;
  for (const auto& event : feed) {
    fp.push_back(event.offset_seconds);
    if (event.kind == workload::QuoteFeedEvent::Kind::kOption) {
      fp.push_back(event.option.maturity_years);
      fp.push_back(event.option.recovery_rate);
    } else {
      fp.push_back(static_cast<double>(event.knot));
      fp.push_back(event.rate);
    }
  }
  return fp;
}

workload::QuoteFeedSpec tenant_feed_spec(std::uint64_t seed,
                                         std::uint32_t tenant) {
  auto spec = small_feed_spec(96, 8);
  spec.seed = seed;
  spec.tenant = tenant;
  spec.rate_hz = 1000.0;  // exercise the arrival stream too
  return spec;
}

TEST(QuoteFeed, TenantZeroReproducesTheLegacyStreamBitForBit) {
  const auto hazard = test_hazard();
  auto legacy = small_feed_spec(96, 8);
  legacy.rate_hz = 1000.0;
  legacy.seed = 7;
  // tenant is defaulted to 0 in `legacy`; setting it explicitly must not
  // perturb a single drawn bit.
  EXPECT_EQ(feed_fingerprint(workload::make_quote_feed(legacy, hazard)),
            feed_fingerprint(
                workload::make_quote_feed(tenant_feed_spec(7, 0), hazard)));
}

TEST(QuoteFeed, TenantStreamsAreDeterministicAndPairwiseDistinct) {
  const auto hazard = test_hazard();
  std::vector<std::vector<double>> prints;
  for (const std::uint32_t tenant : {0u, 1u, 2u, 3u, 4u}) {
    const auto spec = tenant_feed_spec(7, tenant);
    const auto a = feed_fingerprint(workload::make_quote_feed(spec, hazard));
    const auto b = feed_fingerprint(workload::make_quote_feed(spec, hazard));
    EXPECT_EQ(a, b) << "tenant " << tenant << " feed must be reproducible";
    prints.push_back(a);
  }
  for (std::size_t i = 0; i < prints.size(); ++i) {
    for (std::size_t j = i + 1; j < prints.size(); ++j) {
      EXPECT_NE(prints[i], prints[j])
          << "tenants " << i << " and " << j << " share a stream";
    }
  }
}

TEST(QuoteFeed, TenantDerivationIsNotSeedArithmetic) {
  // The classic bug: deriving tenant streams as seed + tenant, which makes
  // (seed=7, tenant=2) collide with (seed=8, tenant=1) and (seed=9,
  // tenant=0). The split-tree derivation must keep all of these distinct.
  const auto hazard = test_hazard();
  const auto base =
      feed_fingerprint(workload::make_quote_feed(tenant_feed_spec(7, 2),
                                                 hazard));
  EXPECT_NE(base, feed_fingerprint(workload::make_quote_feed(
                      tenant_feed_spec(8, 1), hazard)));
  EXPECT_NE(base, feed_fingerprint(workload::make_quote_feed(
                      tenant_feed_spec(9, 0), hazard)));
  EXPECT_NE(base, feed_fingerprint(workload::make_quote_feed(
                      tenant_feed_spec(5, 4), hazard)));
}

TEST(StreamRuntime, MatchesSerialReplayWithHazardUpdates) {
  const auto interest = test_interest();
  const auto hazard = test_hazard();
  const auto spec = small_feed_spec(101, 10);
  const auto feed = workload::make_quote_feed(spec, hazard);
  const auto want = replay_serially(interest, hazard, feed);

  runtime::StreamConfig cfg;
  cfg.lanes = 3;
  cfg.max_batch = 8;
  cfg.max_wait_us = 50;
  runtime::StreamRuntime rt(interest, hazard, cfg);
  const auto report = rt.play(feed);

  EXPECT_EQ(report.events_in, 101u);
  EXPECT_EQ(report.hazard_updates, 10u);
  EXPECT_EQ(report.events_priced, 91u);
  EXPECT_EQ(report.events_dropped, 0u);
  ASSERT_EQ(report.run.results.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(report.run.results[i].id, want[i].id) << "at " << i;
    EXPECT_EQ(report.run.results[i].spread_bps, want[i].spread_bps)
        << "at " << i;
  }
  // Sanity on the accounting: every option event has a latency, batches
  // partition the events, modelled makespan is positive.
  std::size_t batched_events = 0;
  for (const auto& batch : report.batches) batched_events += batch.events;
  EXPECT_EQ(batched_events, report.events_priced);
  EXPECT_GT(report.run.invocations, 0u);
  EXPECT_GT(report.modelled_seconds, 0.0);
  EXPECT_GT(report.max_latency_seconds, 0.0);
  EXPECT_GE(report.p99_latency_seconds, report.p50_latency_seconds);
}

TEST(StreamRuntime, DeterministicAcrossLaneCounts) {
  const auto interest = test_interest();
  const auto hazard = test_hazard();
  const auto feed =
      workload::make_quote_feed(small_feed_spec(64, 9), hazard);
  std::vector<cds::SpreadResult> reference;
  for (const unsigned lanes : {1u, 4u}) {
    SCOPED_TRACE(lanes);
    runtime::StreamConfig cfg;
    cfg.lanes = lanes;
    cfg.max_batch = 5;
    runtime::StreamRuntime rt(interest, hazard, cfg);
    const auto report = rt.play(feed);
    if (reference.empty()) {
      reference = report.run.results;
    } else {
      ASSERT_EQ(report.run.results.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(report.run.results[i].id, reference[i].id);
        EXPECT_EQ(report.run.results[i].spread_bps,
                  reference[i].spread_bps);
      }
    }
  }
}

TEST(StreamRuntime, SweepAndVectorNamesPriceIdentically) {
  // Both names select a SIMD kernel (engine::simd_level), so a stream on
  // "cpu-sweep" runs at the same level as one on "cpu-vec" -- and as a
  // "cpu-sweep" CpuEngine does -- and prices the same feed to the same
  // bytes.
  const auto interest = test_interest();
  const auto hazard = test_hazard();
  const auto feed =
      workload::make_quote_feed(small_feed_spec(96, 8), hazard);
  std::vector<std::vector<cds::SpreadResult>> results;
  for (const char* name : {"cpu-vec", "cpu-sweep"}) {
    runtime::StreamConfig cfg;
    cfg.engine = name;
    cfg.lanes = 2;
    cfg.max_batch = 8;
    runtime::StreamRuntime rt(interest, hazard, cfg);
    results.push_back(rt.play(feed).run.results);
  }
  ASSERT_EQ(results[1].size(), results[0].size());
  ASSERT_FALSE(results[0].empty());
  for (std::size_t i = 0; i < results[0].size(); ++i) {
    EXPECT_EQ(results[1][i].id, results[0][i].id) << "at " << i;
    EXPECT_EQ(results[1][i].spread_bps, results[0][i].spread_bps)
        << "at " << i;
  }
}

TEST(StreamRuntime, RiskModeStreamsGreeks) {
  const auto interest = test_interest();
  const auto hazard = test_hazard();
  const auto feed =
      workload::make_quote_feed(small_feed_spec(40, 0), hazard);
  std::vector<cds::CdsOption> book;
  for (const auto& event : feed) book.push_back(event.option);

  runtime::StreamConfig cfg;
  cfg.engine = "cpu-batch-risk";
  cfg.lanes = 2;
  cfg.max_batch = 16;
  cfg.ladder_edges = {0.0, 5.0, 30.0};
  runtime::StreamRuntime rt(interest, hazard, cfg);
  EXPECT_TRUE(rt.risk_mode());
  EXPECT_EQ(rt.ladder_buckets(), 2u);
  const auto report = rt.play(feed);

  cds::BatchRiskConfig risk_config;
  risk_config.ladder_edges = cfg.ladder_edges;
  const cds::BatchPricer reference(interest, hazard);
  const auto want = reference.price_with_sensitivities(book, risk_config);

  ASSERT_EQ(report.run.sensitivities.size(), book.size());
  ASSERT_EQ(report.run.ladder_buckets, 2u);
  ASSERT_EQ(report.run.cs01_ladder.size(), book.size() * 2);
  for (std::size_t i = 0; i < book.size(); ++i) {
    EXPECT_EQ(report.run.sensitivities[i].cs01, want.sensitivities[i].cs01);
    EXPECT_EQ(report.run.sensitivities[i].jtd, want.sensitivities[i].jtd);
    EXPECT_EQ(report.run.results[i].spread_bps,
              want.sensitivities[i].spread_bps);
  }
  for (std::size_t i = 0; i < report.run.cs01_ladder.size(); ++i) {
    EXPECT_EQ(report.run.cs01_ladder[i], want.cs01_ladder[i]);
  }
}

TEST(StreamRuntime, DeadlineMissesAreCounted) {
  const auto interest = test_interest();
  const auto hazard = test_hazard();
  runtime::StreamConfig cfg;
  cfg.lanes = 1;
  cfg.max_batch = 1024;       // never fills from 3 events
  cfg.max_wait_us = 100'000;  // flush only happens at drain
  cfg.deadline_us = 1;        // everything that waited measurably misses
  runtime::StreamRuntime rt(interest, hazard, cfg);
  for (std::int32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(rt.push(option_with_id(i)));
  }
  // Let the events age well past the 1 us deadline before the drain flush.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto report = rt.finish();
  EXPECT_EQ(report.events_priced, 3u);
  EXPECT_EQ(report.deadline_misses, 3u);
  ASSERT_EQ(report.batches.size(), 1u);
  EXPECT_EQ(report.batches[0].deadline_misses, 3u);
  EXPECT_GT(report.p50_latency_seconds, 1e-6);
}

TEST(StreamRuntime, PushAfterCloseFailsAndFinishIsSingleUse) {
  runtime::StreamConfig cfg;
  cfg.lanes = 1;
  runtime::StreamRuntime rt(test_interest(), test_hazard(), cfg);
  rt.close();
  EXPECT_FALSE(rt.push(option_with_id(1)));
  EXPECT_FALSE(rt.push_hazard_quote(0, 0.02));
  const auto report = rt.finish();
  EXPECT_EQ(report.events_in, 0u);
  EXPECT_EQ(report.events_priced, 0u);
  EXPECT_EQ(report.modelled_seconds, 0.0);
  EXPECT_THROW(rt.finish(), Error);
}

TEST(StreamRuntime, BadHazardUpdateSurfacesAtFinish) {
  runtime::StreamConfig cfg;
  cfg.lanes = 2;
  runtime::StreamRuntime rt(test_interest(), test_hazard(), cfg);
  rt.push(option_with_id(0));
  rt.push_hazard_quote(1'000'000, 0.02);  // knot out of range
  EXPECT_THROW(rt.finish(), Error);
}

TEST(StreamRuntime, PollBatchesHarvestsEachBatchExactlyOnceInOrder) {
  const auto interest = test_interest();
  const auto hazard = test_hazard();
  runtime::StreamConfig cfg;
  cfg.lanes = 2;
  cfg.max_batch = 6;  // divides the push count: every batch flushes on full
  cfg.max_wait_us = 100;
  runtime::StreamRuntime rt(interest, hazard, cfg);

  constexpr std::size_t kOptions = 60;
  for (std::size_t i = 0; i < kOptions; ++i) {
    ASSERT_TRUE(rt.push(option_with_id(static_cast<std::int32_t>(i))));
  }

  // Harvest incrementally while the lanes drain. Every poll returns only
  // batches not seen before, and the stitched stream is the contiguous
  // batch sequence 0..n-1.
  std::vector<cds::SpreadResult> polled;
  std::size_t next_index = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (polled.size() < kOptions) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "poll_batches never surfaced all batches";
    for (const auto& batch : rt.poll_batches()) {
      EXPECT_EQ(batch.index, next_index) << "batch replayed or skipped";
      ++next_index;
      polled.insert(polled.end(), batch.results.begin(), batch.results.end());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // At least one batch per max_batch window; timer flushes may add more.
  EXPECT_GE(next_index, kOptions / cfg.max_batch);
  // Fully harvested: an extra poll is empty, not a replay from index 0.
  EXPECT_TRUE(rt.poll_batches().empty());

  // finish() still observes the complete run -- polling copies, it does not
  // consume the collector.
  const auto report = rt.finish();
  ASSERT_EQ(report.run.results.size(), kOptions);
  ASSERT_EQ(polled.size(), kOptions);
  for (std::size_t i = 0; i < kOptions; ++i) {
    EXPECT_EQ(polled[i].id, report.run.results[i].id) << "at " << i;
    EXPECT_EQ(polled[i].spread_bps, report.run.results[i].spread_bps)
        << "at " << i;
  }
}

TEST(StreamRuntime, CompletionNotifierFiresOnlyAfterTheBatchIsPollable) {
  const auto interest = test_interest();
  const auto hazard = test_hazard();
  runtime::StreamConfig cfg;
  cfg.lanes = 1;  // batches complete in index order: each one is pollable
  cfg.max_batch = 4;
  cfg.max_wait_us = 100;
  runtime::StreamRuntime rt(interest, hazard, cfg);
  std::atomic<std::size_t> notified{0};
  rt.set_completion_notifier(
      [&notified] { notified.fetch_add(1, std::memory_order_release); });

  constexpr std::size_t kOptions = 64;
  for (std::size_t i = 0; i < kOptions; ++i) {
    ASSERT_TRUE(rt.push(option_with_id(static_cast<std::int32_t>(i))));
  }

  // Put -> notify: once the notifier has fired N times, poll_batches has
  // handed back at least N batches, in index order.
  std::size_t polled_events = 0;
  std::size_t next_index = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (polled_events < kOptions) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "poll_batches never surfaced all batches";
    const std::size_t fired = notified.load(std::memory_order_acquire);
    for (const auto& batch : rt.poll_batches()) {
      EXPECT_EQ(batch.index, next_index) << "batch replayed or skipped";
      ++next_index;
      polled_events += batch.results.size();
    }
    ASSERT_GE(next_index, fired) << "notified before the batch was stored";
  }
  const auto report = rt.finish();
  EXPECT_EQ(notified.load(), report.batches.size());
  EXPECT_EQ(next_index, report.batches.size());
}

TEST(StreamRuntime, SpanIngestMatchesPerOptionIngestAndSerialReplay) {
  // A quote after every 64-option request, as the service feeds a tenant:
  // a runtime fed one push_span per request, one fed option by option and
  // one StreamPricer fed in order agree to the bit, at one and three lanes.
  const auto interest = test_interest();
  const auto hazard = test_hazard();
  const auto feed =
      workload::make_quote_feed(small_feed_spec(65 * 12, 65), hazard);
  const auto want = replay_serially(interest, hazard, feed);
  ASSERT_EQ(want.size(), 64u * 12);

  for (const unsigned lanes : {1u, 3u}) {
    SCOPED_TRACE(lanes);
    runtime::StreamConfig cfg;
    cfg.lanes = lanes;
    cfg.max_batch = 24;  // batches straddle requests
    cfg.max_wait_us = 50;
    runtime::StreamRuntime spans(interest, hazard, cfg);
    runtime::StreamRuntime singles(interest, hazard, cfg);
    std::vector<cds::CdsOption> request;
    for (const auto& event : feed) {
      if (event.kind == workload::QuoteFeedEvent::Kind::kOption) {
        request.push_back(event.option);
        ASSERT_TRUE(singles.push(event.option));
        continue;
      }
      ASSERT_EQ(request.size(), 64u);
      ASSERT_TRUE(spans.push_span(request));
      request.clear();
      ASSERT_TRUE(spans.push_hazard_quote(event.knot, event.rate));
      ASSERT_TRUE(singles.push_hazard_quote(event.knot, event.rate));
    }
    const auto by_span = spans.finish();
    const auto by_option = singles.finish();
    EXPECT_EQ(by_span.hazard_updates, 12u);
    ASSERT_EQ(by_span.run.results.size(), want.size());
    ASSERT_EQ(by_option.run.results.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(by_span.run.results[i].id, want[i].id) << "at " << i;
      EXPECT_EQ(by_span.run.results[i].spread_bps, want[i].spread_bps)
          << "at " << i;
      EXPECT_EQ(by_option.run.results[i].id, want[i].id) << "at " << i;
      EXPECT_EQ(by_option.run.results[i].spread_bps, want[i].spread_bps)
          << "at " << i;
    }
  }
}

TEST(StreamRuntime, QuoteFreeStreamReapsFinishedBatches) {
  // Regression: finished batch futures -- and with them each batch's
  // events -- were only released by a hazard quote's barrier or by
  // finish(), so a quote-free stream held one task per batch ever priced.
  // Paced so each batch completes before the next is pushed.
  constexpr std::size_t kBatches = 200;
  constexpr std::size_t kBatchOptions = 8;
  runtime::StreamConfig cfg;
  cfg.lanes = 1;
  cfg.max_batch = kBatchOptions;  // every request flushes on full
  cfg.max_wait_us = 100'000;
  runtime::StreamRuntime rt(test_interest(), test_hazard(), cfg);
  std::atomic<std::size_t> completed{0};
  rt.set_completion_notifier(
      [&completed] { completed.fetch_add(1, std::memory_order_release); });

  const auto request = options_with_ids(0, kBatchOptions);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (std::size_t k = 0; k < kBatches; ++k) {
    ASSERT_TRUE(rt.push_span(request));
    while (completed.load(std::memory_order_acquire) <= k) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  const auto report = rt.finish();
  EXPECT_EQ(report.batches.size(), kBatches);
  EXPECT_EQ(report.events_priced, kBatches * kBatchOptions);
  EXPECT_GE(report.in_flight_high_water, 1u);
  EXPECT_LE(report.in_flight_high_water, 3u);
}

TEST(StreamRuntime, RejectsNonCpuEngines) {
  runtime::StreamConfig cfg;
  cfg.engine = "vectorised";
  EXPECT_THROW(
      runtime::StreamRuntime(test_interest(), test_hazard(), cfg), Error);
}

}  // namespace
}  // namespace cdsflow
