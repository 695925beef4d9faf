// Fixture: a timed wait outside any exec/ directory. The rule polices
// executor lanes only; a test that bounds how long it waits for a
// future, for example, may use a timeout.
#include <chrono>
#include <future>

namespace tabbin {

bool ReadyWithin(std::future<int>& f, std::chrono::milliseconds limit) {
  return f.wait_for(limit) == std::future_status::ready;
}

}  // namespace tabbin
