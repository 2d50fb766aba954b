// A single background thread running delayed callbacks — the wall-clock
// analogue of the simulator's scheduler, used by the TCP runtime's site
// server to support Services::schedule (RemoteFetch failover timers) and
// its periodic anti-entropy and heartbeat ticks.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ccpr::util {

class TimerThread {
 public:
  TimerThread() = default;
  ~TimerThread() { stop(); }

  TimerThread(const TimerThread&) = delete;
  TimerThread& operator=(const TimerThread&) = delete;

  void start();
  /// Stops the thread; pending timers are discarded. Idempotent.
  void stop();

  /// Run `fn` after `delay_us` microseconds of wall time (best effort).
  /// Callable before start(); such timers fire once the thread runs.
  void schedule_after(std::int64_t delay_us, std::function<void()> fn);

  std::size_t pending() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    Clock::time_point when;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void pump();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::thread thread_;
  std::uint64_t next_seq_ = 0;
  bool running_ = false;
  bool stopping_ = false;
};

}  // namespace ccpr::util
