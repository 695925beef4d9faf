// Span recorder for the traced run. The benchmark wraps each call into a
// layer in a span (name, start, end, parent span, request id); spans are
// kept in memory and written out when the run ends. Untraced runs hold a
// disabled tracer, whose scopes record nothing.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }

  int64_t NewId() { return next_id_.fetch_add(1) + 1; }

  void Record(Span span) {
    if (!on_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  /// \brief Records one span from construction to destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t parent = 0,
          int64_t request = 0)
        : tracer_(tracer->on() ? tracer : nullptr) {
      if (tracer_ == nullptr) return;
      span_.name = name;
      span_.parent = parent;
      span_.request = request;
      span_.id = tracer_->NewId();
      span_.start_ns = NowNs();
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      span_.end_ns = NowNs();
      tracer_->Record(std::move(span_));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int64_t id() const { return span_.id; }

   private:
    Tracer* tracer_;
    Span span_;
  };

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// \brief Mean span duration per name, in microseconds.
  std::map<std::string, double> MeanUs() const;
  /// \brief Writes every span as one tab-separated line; false on error.
  bool WriteTsv(const std::string& path) const;

 private:
  const bool on_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
