#include "runtime/thread_pool.hpp"

#include <atomic>
#include <exception>

#include "common/error.hpp"

namespace cdsflow::runtime {

ThreadPool::ThreadPool(unsigned workers) {
  CDSFLOW_EXPECT(workers > 0, "thread pool needs at least one worker");
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
  MutexLock stop_lock(stop_mutex_);
  if (joined_) return;
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
  joined_ = true;
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    MutexLock lock(mutex_);
    // Fail fast: once stop has begun the workers may already be draining
    // towards exit, and a task enqueued now could sit in the queue forever.
    // Throwing here keeps the contract "every accepted task runs".
    CDSFLOW_EXPECT(!stopping_,
                   "submit() after ThreadPool::stop() began; late submits "
                   "fail fast instead of enqueueing work no worker will run");
    queue_.push_back(std::move(packaged));
  }
  wake_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      UniqueLock lock(mutex_);
      wake_.wait(lock.native(),
                 [this]() CDSFLOW_REQUIRES(mutex_) {
                   return stopping_ || !queue_.empty();
                 });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions land in the matching future
  }
}

void run_lanes(ThreadPool* pool, unsigned lanes, std::size_t n,
               const std::function<void(std::size_t index, unsigned lane)>&
                   shard) {
  CDSFLOW_EXPECT(lanes > 0, "run_lanes needs at least one lane");
  CDSFLOW_EXPECT(lanes == 1 || (pool != nullptr && pool->size() >= lanes - 1),
                 "run_lanes needs a pool worker for every lane but the "
                 "caller's");
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> failures(n);
  const auto lane = [&](unsigned l) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        shard(i, l);
      } catch (...) {
        failures[i] = std::current_exception();
      }
    }
  };
  std::vector<std::future<void>> pending;
  std::exception_ptr submit_failure;
  try {
    for (unsigned l = 1; l < lanes && l < n; ++l) {
      pending.push_back(pool->submit([&lane, l] { lane(l); }));
    }
  } catch (...) {
    submit_failure = std::current_exception();  // the pool is stopping
  }
  lane(0);
  for (auto& f : pending) f.get();  // lanes never throw; this is the join
  if (submit_failure) std::rethrow_exception(submit_failure);
  for (const auto& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
}

}  // namespace cdsflow::runtime
