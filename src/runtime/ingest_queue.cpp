#include "runtime/ingest_queue.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/error.hpp"

namespace cdsflow::runtime {

const char* to_string(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock:
      return "block";
    case BackpressurePolicy::kDropOldest:
      return "drop-oldest";
  }
  return "?";
}

BackpressurePolicy parse_backpressure_policy(const std::string& name) {
  if (name == "block") return BackpressurePolicy::kBlock;
  if (name == "drop-oldest") return BackpressurePolicy::kDropOldest;
  throw Error("unknown backpressure policy '" + name +
              "'; known: block, drop-oldest");
}

QuoteEvent option_event(cds::CdsOption option) {
  QuoteEvent event;
  event.kind = QuoteEvent::Kind::kOption;
  event.option = option;
  return event;
}

QuoteEvent hazard_quote_event(std::size_t knot, double rate) {
  QuoteEvent event;
  event.kind = QuoteEvent::Kind::kHazardQuote;
  event.knot = knot;
  event.rate = rate;
  return event;
}

IngestQueue::IngestQueue(std::size_t capacity, BackpressurePolicy policy)
    : capacity_(capacity), policy_(policy) {
  CDSFLOW_EXPECT(capacity_ > 0, "ingest queue capacity must be positive");
}

template <typename MakeEvent>
bool IngestQueue::enqueue(std::size_t n, MakeEvent make_event) {
  // Stamp on entry, before the lock and any backpressure wait: time a
  // producer spends parked by the kBlock policy is part of the events'
  // ingest-to-result latency and of deadline accounting, not free.
  const StreamClock::time_point ingest = StreamClock::now();
  UniqueLock lock(mutex_);
  std::size_t i = 0;
  for (; i < n && !closed_; ++i) {
    if (queue_.size() >= capacity_) {
      if (policy_ == BackpressurePolicy::kBlock) {
        ++stats_.blocked_pushes;
        // Wake the consumer before parking: the events this span already
        // enqueued may be all that stands between it and free space.
        not_empty_.notify_one();
        not_full_.wait(lock.native(), [this]() CDSFLOW_REQUIRES(mutex_) {
          return closed_ || queue_.size() < capacity_;
        });
        if (closed_) break;
      } else {
        queue_.pop_front();
        ++stats_.dropped_oldest;
      }
    }
    QuoteEvent event = make_event(i);
    event.ingest = ingest;
    event.sequence = next_sequence_++;
    queue_.push_back(std::move(event));
    ++stats_.accepted;
    stats_.high_water = std::max(stats_.high_water, queue_.size());
  }
  stats_.rejected_closed += n - i;
  lock.unlock();
  if (i > 0) not_empty_.notify_one();
  return i == n;
}

bool IngestQueue::push_span(std::span<const cds::CdsOption> options) {
  return enqueue(options.size(),
                 [options](std::size_t i) { return option_event(options[i]); });
}

bool IngestQueue::push(QuoteEvent event) {
  return enqueue(1, [&event](std::size_t) { return std::move(event); });
}

void IngestQueue::close() {
  {
    MutexLock lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

std::size_t IngestQueue::pop_all(std::vector<QuoteEvent>& out,
                                 std::optional<StreamClock::duration> timeout) {
  UniqueLock lock(mutex_);
  const auto ready = [this]() CDSFLOW_REQUIRES(mutex_) {
    return closed_ || !queue_.empty();
  };
  if (timeout) {
    not_empty_.wait_for(lock.native(), *timeout, ready);
  } else {
    not_empty_.wait(lock.native(), ready);
  }
  const std::size_t n = queue_.size();
  std::move(queue_.begin(), queue_.end(), std::back_inserter(out));
  queue_.clear();
  lock.unlock();
  // Every slot just freed may admit a different parked producer.
  if (n > 0) not_full_.notify_all();
  return n;
}

bool IngestQueue::closed() const {
  MutexLock lock(mutex_);
  return closed_;
}

bool IngestQueue::drained() const {
  MutexLock lock(mutex_);
  return closed_ && queue_.empty();
}

std::size_t IngestQueue::size() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

IngestQueueStats IngestQueue::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

MicroBatcher::MicroBatcher(std::size_t max_batch,
                           StreamClock::duration max_wait)
    : max_batch_(max_batch), max_wait_(max_wait) {
  CDSFLOW_EXPECT(max_batch_ > 0, "micro-batch size must be positive");
  CDSFLOW_EXPECT(max_wait_ >= StreamClock::duration::zero(),
                 "micro-batch max wait must be non-negative");
}

bool MicroBatcher::add(QuoteEvent event) {
  CDSFLOW_ASSERT(events_.size() < max_batch_,
                 "add() on a full micro-batch; take() it first");
  if (events_.empty()) opened_ = event.ingest;
  events_.push_back(std::move(event));
  return events_.size() >= max_batch_;
}

bool MicroBatcher::due(StreamClock::time_point now) const {
  return open() && now - opened_ >= max_wait_;
}

StreamClock::duration MicroBatcher::time_until_due(
    StreamClock::time_point now) const {
  if (!open()) return max_wait_;
  const auto waited = now - opened_;
  if (waited >= max_wait_) return StreamClock::duration::zero();
  return max_wait_ - waited;
}

std::vector<QuoteEvent> MicroBatcher::take() {
  std::vector<QuoteEvent> batch = std::move(events_);
  events_.clear();  // moved-from state is unspecified; make it empty again
  return batch;
}

}  // namespace cdsflow::runtime
