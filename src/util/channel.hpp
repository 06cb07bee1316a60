// Bounded MPSC channel: the handoff from an HTTP serving worker to its
// spill writer (server/sparql_server.cpp). Once a response outgrows its
// first chunk, the worker's sink pushes row batches here while the search
// goes on, and the writer thread pops, encodes and sends them; the
// capacity, counted in items, bounds what a spilled response holds in
// flight.
//
// Both ends block on condition variables. A producer with an abort source
// the channel cannot see (a cancel token or a deadline — nothing ever
// notifies the condvar for those) passes an abort predicate to Push, and
// the wait is sliced so the predicate is polled while it is parked on a
// full channel. Without such a source it uses the predicate-free Push,
// which blocks in a plain untimed wait: every event that can end the wait
// (space freed by Pop, the consumer closing) notifies the condvar, so timed
// polling would be pure wasted wakeups. timed_wait_slices() counts the
// sliced waits so tests can assert the abort-free path never spuriously
// wakes. Before it blocks, Pop spins for a few microseconds on a lock-free
// "item ready" flag: a producer in mid-batch usually delivers sooner than
// a park/wake round trip completes.
//
// Protocol:
//   - producer: Push(...) until done or aborted, then CloseProducer().
//   - consumer: Pop(...) until kClosed, or CloseConsumer() to walk away —
//     that drops any buffered items and turns every subsequent Push into
//     kClosed (the writer does this when a socket write fails). It also
//     wakes a producer blocked in an untimed Push.
//
// Multiple producers are safe; there must be at most one consumer.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

namespace turbo::util {

template <typename T>
class Channel {
 public:
  enum class Op : uint8_t {
    kOk,       ///< item transferred
    kClosed,   ///< Push: consumer walked away; Pop: producer done and empty
    kAborted,  ///< the abort predicate fired while blocked
  };

  explicit Channel(size_t capacity) : cap_(capacity == 0 ? 1 : capacity) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Blocks while the channel is full. `abort()` is polled every wait slice;
  /// returning true abandons the push. The item is consumed only on kOk.
  template <typename AbortFn>
  Op Push(T item, AbortFn&& abort) {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      if (consumer_closed_) return Op::kClosed;
      if (items_.size() < cap_) break;
      if (abort()) return Op::kAborted;
      ++timed_wait_slices_;
      not_full_.wait_for(lock, kWaitSlice);
    }
    DoPush(std::move(item), &lock);
    return Op::kOk;
  }

  /// Abort-free push: blocks untimed while the channel is full. Only a
  /// consumer event can end the wait (space freed by Pop, or CloseConsumer),
  /// and both notify — no polling, no spurious timed wakeups.
  Op Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return consumer_closed_ || items_.size() < cap_; });
    if (consumer_closed_) return Op::kClosed;
    DoPush(std::move(item), &lock);
    return Op::kOk;
  }

  /// Blocks until an item arrives or the producer closes — both producer
  /// events notify, so no timed polling is needed. kClosed means
  /// end-of-stream: every pushed item has been popped.
  Op Pop(T* out) {
    SpinForItem();
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return producer_closed_ || !items_.empty(); });
    if (items_.empty()) return Op::kClosed;
    DoPop(out, &lock);
    return Op::kOk;
  }

  /// End of stream: the consumer drains what is buffered, then sees kClosed.
  void CloseProducer() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      producer_closed_ = true;
      poppable_.store(true, std::memory_order_release);
    }
    not_empty_.notify_all();
  }

  /// Consumer walks away: buffered items are dropped and blocked producers
  /// wake with kClosed.
  void CloseConsumer() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      consumer_closed_ = true;
      items_.clear();
    }
    not_full_.notify_all();
  }

  /// Number of sliced (timed) waits taken so far. Zero on the abort-free
  /// Push and on Pop by construction — the busy-wakeup regression guard.
  uint64_t timed_wait_slices() const {
    std::lock_guard<std::mutex> lock(mu_);
    return timed_wait_slices_;
  }

 private:
  // Short enough that deadlines are observed promptly, long enough that a
  // parked producer costs nothing measurable.
  static constexpr std::chrono::milliseconds kWaitSlice{2};
  // A producer mid-batch usually delivers within a few microseconds — less
  // than parking and waking a thread costs — so Pop polls `poppable_` this
  // long before it takes the lock and blocks. Push never spins: a full
  // channel means the consumer is the slower side, and parking there costs
  // the consumer nothing.
  static constexpr std::chrono::microseconds kPopSpin{20};

  void SpinForItem() const {
    if (poppable_.load(std::memory_order_acquire)) return;
    const auto until = std::chrono::steady_clock::now() + kPopSpin;
    do {
      for (int i = 0; i < 32; ++i) CpuRelax();
      if (poppable_.load(std::memory_order_acquire)) return;
    } while (std::chrono::steady_clock::now() < until);
  }

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  void DoPush(T item, std::unique_lock<std::mutex>* lock) {
    items_.push_back(std::move(item));
    poppable_.store(true, std::memory_order_release);
    lock->unlock();
    not_empty_.notify_one();
  }

  void DoPop(T* out, std::unique_lock<std::mutex>* lock) {
    *out = std::move(items_.front());
    items_.pop_front();
    poppable_.store(!items_.empty() || producer_closed_, std::memory_order_release);
    lock->unlock();
    not_full_.notify_one();
  }

  const size_t cap_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  uint64_t timed_wait_slices_ = 0;
  /// Lock-free mirror of "Pop would not block" for the spin; written under mu_.
  std::atomic<bool> poppable_{false};
  bool producer_closed_ = false;
  bool consumer_closed_ = false;
};

}  // namespace turbo::util
