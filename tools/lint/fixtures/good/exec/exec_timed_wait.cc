// Fixture: an executor lane that blocks untimed and is woken by events.
// A submit or a pause request notifies under the mutex, so no wakeup is
// lost and nothing needs a timer. Naming wait_for or sleep_for in a
// comment is fine: the rule reads code, not prose.
#include <condition_variable>
#include <mutex>

namespace tabbin {

class EventDrivenDispatcher {
 public:
  void WaitForWork() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return pending_ > 0 || paused_; });
  }

  void Submit() {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
    cv_.notify_one();
  }

  void Pause() {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int pending_ = 0;
  bool paused_ = false;
};

}  // namespace tabbin
