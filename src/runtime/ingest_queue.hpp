/// \file ingest_queue.hpp
/// Bounded multi-producer/single-consumer ingest queue plus the micro-batch
/// accumulator for the streaming quote runtime.
///
/// The paper's stated future direction is driving the engine from a live
/// AAT-style real-time feed rather than a pre-materialised book. The feed
/// side of that runtime is here:
///
///   * QuoteEvent      -- one timestamped feed element: a CDS option quote
///                        request, or a hazard-quote update (knot k of the
///                        hazard curve moved to a new rate).
///   * IngestQueue     -- a bounded MPSC queue with a configurable
///                        backpressure policy. kBlock parks producers until
///                        the dispatcher frees space (lossless, adds
///                        latency); kDropOldest evicts the stalest queued
///                        event to admit the new one (bounded latency, loses
///                        events). Both behaviours are *counted*
///                        (blocked_pushes / dropped_oldest) so the report
///                        can say which price was paid. The unit of handoff
///                        is a request, not an event: push_span() enqueues a
///                        run of options under one lock with one wake, and
///                        the dispatcher's pop_all() takes everything queued
///                        under one lock -- the paper's inter-option
///                        dataflow, where a token moves between stages
///                        without a per-element synchronisation.
///   * MicroBatcher    -- the dispatcher's flush policy: close the open
///                        micro-batch when it reaches `max_batch` events or
///                        when its oldest event has waited `max_wait` since
///                        ingest. A pure state machine over the events'
///                        ingest timestamps -- no clock of its own -- so
///                        tests drive it with a fake clock.
///
/// Timestamps use steady_clock and are stamped once per push, on entry --
/// *before* any backpressure wait, so time a producer spends parked by the
/// kBlock policy is charged to the events' latency; every event of one
/// push_span() shares that stamp. Sequence numbers are assigned under the
/// queue lock at enqueue, so sequences match queue order while ingest
/// stamps of racing producers may interleave. Ingest-to-result latency and
/// deadline accounting in the runtime all measure from that stamp.
///
/// kBlock wait protocol (docs/CONCURRENCY.md): a span larger than the free
/// space enqueues what fits, wakes the consumer, and only then parks on
/// not_full_ -- otherwise a span larger than the capacity would wait for a
/// consumer that was never told there is anything to take.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cds/types.hpp"
#include "common/thread_annotations.hpp"

namespace cdsflow::runtime {

using StreamClock = std::chrono::steady_clock;

/// What to do with a push into a full queue.
enum class BackpressurePolicy {
  kBlock,      ///< park the producer until the dispatcher frees space
  kDropOldest  ///< evict the stalest queued event, admit the new one
};

const char* to_string(BackpressurePolicy policy);
/// Parses "block" / "drop-oldest" (the CLI flag values); throws on others.
BackpressurePolicy parse_backpressure_policy(const std::string& name);

/// One feed element.
struct QuoteEvent {
  enum class Kind : std::uint8_t {
    kOption,      ///< price this CDS option
    kHazardQuote  ///< hazard curve knot `knot` moved to `rate`
  };
  Kind kind = Kind::kOption;
  /// Global arrival order, assigned by the queue at ingest.
  std::uint64_t sequence = 0;
  /// Ingest timestamp, stamped on entry to IngestQueue::push/push_span --
  /// before any backpressure wait (latency measurements anchor here).
  StreamClock::time_point ingest{};
  /// kOption payload.
  cds::CdsOption option{};
  /// kHazardQuote payload.
  std::size_t knot = 0;
  double rate = 0.0;
};

QuoteEvent option_event(cds::CdsOption option);
QuoteEvent hazard_quote_event(std::size_t knot, double rate);

/// Queue-side accounting (snapshot via IngestQueue::stats()).
struct IngestQueueStats {
  /// Events accepted into the queue (including any later evicted by
  /// kDropOldest).
  std::uint64_t accepted = 0;
  /// Events evicted by the kDropOldest policy (never reach the dispatcher).
  std::uint64_t dropped_oldest = 0;
  /// Events rejected because the queue was already closed (a span cut by
  /// close() counts each event it could not enqueue).
  std::uint64_t rejected_closed = 0;
  /// Times a producer had to wait for space (kBlock policy; a span counts
  /// each wait it makes).
  std::uint64_t blocked_pushes = 0;
  /// Maximum queue depth observed.
  std::size_t high_water = 0;
};

class IngestQueue {
 public:
  /// `capacity` must be > 0.
  IngestQueue(std::size_t capacity, BackpressurePolicy policy);

  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  /// Multi-producer push of one run of option events as one handoff: one
  /// ingest stamp (on entry, before any wait), one lock, contiguous sequence
  /// numbers and one consumer wake. Returns false when the queue is closed
  /// before every option is enqueued (the rest are discarded and counted as
  /// rejected_closed). Under kDropOldest the outcome -- queue contents,
  /// sequences and stats -- equals pushing the options one by one. Under
  /// kBlock a span larger than the free space enqueues what fits, wakes the
  /// consumer, then waits; another producer may enqueue at such a wait, so
  /// only a span that never waits is guaranteed contiguous in the queue.
  bool push_span(std::span<const cds::CdsOption> options)
      CDSFLOW_EXCLUDES(mutex_);

  /// One event (an option or a hazard quote) through the push_span() path.
  bool push(QuoteEvent event) CDSFLOW_EXCLUDES(mutex_);

  /// No more pushes will be accepted; parked producers and the consumer are
  /// released. Events already queued remain poppable (close-then-drain).
  void close() CDSFLOW_EXCLUDES(mutex_);

  /// Single-consumer pop of *every* queued event: waits until one is queued,
  /// the queue is drained (closed and empty) or `timeout` (none: no limit)
  /// elapses, then appends all queued events to `out` in queue order under
  /// one lock. Returns how many it appended; 0 on timeout or drain
  /// (disambiguate with drained()).
  std::size_t pop_all(std::vector<QuoteEvent>& out,
                      std::optional<StreamClock::duration> timeout = {})
      CDSFLOW_EXCLUDES(mutex_);

  bool closed() const CDSFLOW_EXCLUDES(mutex_);
  /// Closed and empty: no event will ever be popped again.
  bool drained() const CDSFLOW_EXCLUDES(mutex_);
  std::size_t size() const CDSFLOW_EXCLUDES(mutex_);
  std::size_t capacity() const { return capacity_; }
  BackpressurePolicy policy() const { return policy_; }
  IngestQueueStats stats() const CDSFLOW_EXCLUDES(mutex_);

 private:
  /// The one enqueue path: enqueues make_event(i) for i in [0, n) stamped
  /// with one ingest time (see push_span() for the contract).
  template <typename MakeEvent>
  bool enqueue(std::size_t n, MakeEvent make_event) CDSFLOW_EXCLUDES(mutex_);

  const std::size_t capacity_;
  const BackpressurePolicy policy_;

  /// One capability guards the whole queue state: events, the closed flag,
  /// the sequence counter and the stats block. stats() snapshots the whole
  /// IngestQueueStats under the lock -- a field-by-field off-lock read
  /// could pair an old accepted count with a new high-water mark.
  mutable Mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<QuoteEvent> queue_ CDSFLOW_GUARDED_BY(mutex_);
  bool closed_ CDSFLOW_GUARDED_BY(mutex_) = false;
  std::uint64_t next_sequence_ CDSFLOW_GUARDED_BY(mutex_) = 0;
  IngestQueueStats stats_ CDSFLOW_GUARDED_BY(mutex_);
};

/// The dispatcher's micro-batch flush policy. Accumulates popped events;
/// flush when the batch is full (add() returns true) or when the oldest
/// event has waited `max_wait` since its ingest stamp (due()). Pure state
/// machine over the events' own timestamps: the caller supplies "now", so
/// tests exercise the max-wait path with a fake clock.
class MicroBatcher {
 public:
  /// `max_batch` must be > 0; `max_wait` must be >= 0.
  MicroBatcher(std::size_t max_batch, StreamClock::duration max_wait);

  /// Adds an event to the open batch (opening one anchored at the event's
  /// ingest stamp if needed). Returns true when the batch just reached
  /// max_batch and must flush.
  bool add(QuoteEvent event);

  /// True while a (partial) batch is open.
  bool open() const { return !events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// True when the open batch's oldest event has waited >= max_wait at
  /// `now`. A closed (empty) batcher is never due.
  bool due(StreamClock::time_point now) const;

  /// Time until due(now + result) turns true: 0 when already due, max_wait
  /// when no batch is open (the longest a fresh event could wait).
  StreamClock::duration time_until_due(StreamClock::time_point now) const;

  /// Hands the open batch over and resets to empty.
  std::vector<QuoteEvent> take();

 private:
  const std::size_t max_batch_;
  const StreamClock::duration max_wait_;
  StreamClock::time_point opened_{};  ///< oldest event's ingest stamp
  std::vector<QuoteEvent> events_;
};

}  // namespace cdsflow::runtime
