// Fixture: MUST trip exec-timed-wait (and only that rule).
// An executor dispatcher that lingers a fixed window after every job
// for stragglers, and polls for a pause flag on a timer. A lone query
// pays the whole window even with nothing else queued, and the pause
// is noticed only when the poll comes round.
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace tabbin {

class LingeringDispatcher {
 public:
  void Linger() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::microseconds(200));
  }

  void PollForPause() {
    while (!paused_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool paused_ = false;
};

}  // namespace tabbin
