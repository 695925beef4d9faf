// BoundedQueue — the admission-controlled MPMC queue under the async
// executor's two lanes (exec/executor.h).
//
// Capacity is fixed at construction and enqueue NEVER blocks: TryEnqueue
// returns false on a full (or closed) queue and the caller turns that
// into Status::ResourceExhausted immediately — load sheds at the edge
// instead of building an invisible backlog whose tail latency grows
// without bound. This is the repo-wide rule the `unbounded-exec-queue`
// lint enforces: executor-layer work may only ever be staged in a
// BoundedQueue, and only through TryEnqueue.
//
// Close() is the shutdown handshake: producers start failing fast while
// consumers drain every item already admitted (WaitDequeue returns them
// until the queue is empty, then nullopt), so an admitted job's promise
// is always satisfied — by a result, never by abandonment.
#ifndef TABBIN_EXEC_BOUNDED_QUEUE_H_
#define TABBIN_EXEC_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <optional>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tabbin {

/// \brief Outcome of a conditional dequeue attempt.
enum class DequeueIf {
  kPopped,    ///< front matched the predicate and was dequeued into *out
  kRejected,  ///< the consumer declined: nothing was taken (batch ends)
  kEmpty,     ///< nothing queued (TryDequeueIf never waits for more)
  kClosed,    ///< closed and fully drained
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// \brief Admits `item` unless the queue is full or closed. Never
  /// blocks; on false the item is left untouched so the caller can
  /// still satisfy its promise with a rejection status.
  bool TryEnqueue(T&& item) TABBIN_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// \brief Blocks for the next item; nullopt once closed AND drained
  /// (items admitted before Close are always delivered).
  std::optional<T> WaitDequeue() TABBIN_EXCLUDES(mu_) {
    T out;
    if (WaitDequeueUnless([] { return false; }, &out) != DequeueIf::kPopped) {
      return std::nullopt;
    }
    return out;
  }

  /// \brief Batch-filling dequeue: pops the front into *out iff
  /// pred(front). Never blocks — a batch takes only what is already
  /// queued. kRejected leaves the incompatible front in place; it
  /// becomes the head of the consumer's next batch.
  template <typename Pred>
  DequeueIf TryDequeueIf(const Pred& pred, T* out) TABBIN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (items_.empty()) {
      return closed_ ? DequeueIf::kClosed : DequeueIf::kEmpty;
    }
    if (!pred(items_.front())) return DequeueIf::kRejected;
    *out = std::move(items_.front());
    items_.pop_front();
    return DequeueIf::kPopped;
  }

  /// \brief Blocks (untimed) until an item is queued, the queue is
  /// closed, or stop() holds; then pops the front into *out unless
  /// stop() holds (kRejected, nothing taken). stop() runs under the
  /// queue's mutex, so a thread that makes it true and then calls
  /// Wake() can never lose the wakeup.
  template <typename Stop>
  DequeueIf WaitDequeueUnless(const Stop& stop, T* out)
      TABBIN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (items_.empty() && !closed_ && !stop()) cv_.wait(mu_);
    if (stop()) return DequeueIf::kRejected;
    if (items_.empty()) return DequeueIf::kClosed;
    *out = std::move(items_.front());
    items_.pop_front();
    return DequeueIf::kPopped;
  }

  /// \brief Wakes every blocked consumer so it re-checks its stop
  /// condition. Notifies under the mutex: a consumer is either before
  /// its check (and will see the new state) or already waiting.
  void Wake() TABBIN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    cv_.notify_all();
  }

  /// \brief Stops admissions (TryEnqueue fails from now on) and wakes
  /// every blocked consumer. Idempotent.
  void Close() TABBIN_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const TABBIN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return closed_;
  }

  size_t size() const TABBIN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  mutable Mutex mu_;
  // _any variant: waits on the annotated Mutex directly, keeping the
  // blocked wait inside one analyzed MutexLock region.
  std::condition_variable_any cv_;
  std::deque<T> items_ TABBIN_GUARDED_BY(mu_);
  bool closed_ TABBIN_GUARDED_BY(mu_) = false;
  const size_t capacity_;
};

}  // namespace tabbin

#endif  // TABBIN_EXEC_BOUNDED_QUEUE_H_
