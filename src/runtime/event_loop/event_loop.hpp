// EventLoop: the single-threaded epoll reactor behind the real-time
// runtime.
//
// One loop thread owns everything — the fd handlers, the wall-clock
// timer wheel, the batched UDP transport — so the 10^5-endpoint hot
// path runs with zero locks and zero per-event allocation
// (docs/performance.md "Real-time scale").
//
// Iteration structure (run()):
//   1. drain cross-thread tasks posted via post()
//   2. timers().poll() — fire due wall-clock timers (probe timeouts,
//      inter-cycle delays) through the DES hashed wheel re-clocked to
//      the monotonic clock (des::WallClockTimerWheel)
//   3. flush hooks — e.g. AsyncUdpTransport sendmmsg()s its pending
//      batch so every iteration's output hits the wire before we sleep
//   4. epoll_wait with a timeout derived from the nearest timer
//      deadline (capped); a wake eventfd makes post()/stop() take
//      effect immediately
//   5. dispatch fd events to their handlers
//
// Threading contract:
//   * post(), stop(), running() and the counter accessors are safe
//     from any thread.
//   * Everything else — add_fd/remove_fd/add_flush_hook, timers(), and
//     all AsyncUdpTransport / AsyncDevice / AsyncControlPoint methods
//     that are not explicitly atomic — must run on the loop thread or
//     while the loop is not running. Cross-thread work enters via
//     post().
//
// Linux only (epoll, eventfd; the transport uses recvmmsg/sendmmsg):
// the top-level CMakeLists.txt refuses other systems.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "des/wall_clock.hpp"
#include "telemetry/registry.hpp"
#include "util/thread_annotations.hpp"

namespace probemon::runtime {

class EventLoop {
 public:
  struct Config {
    /// epoll_wait event batch per wakeup.
    int max_fd_events = 256;
    /// Cap on the idle sleep (ms); the wake fd means this is a safety
    /// net, not a latency bound.
    int max_wait_ms = 1000;
  };

  /// `events` is the epoll readiness mask (EPOLLIN etc.).
  using FdHandler = std::function<void(std::uint32_t events)>;
  using Task = std::function<void()>;

  EventLoop() : EventLoop(Config{}) {}
  explicit EventLoop(Config config);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// The loop's wall-clock timer wheel. Loop thread only.
  des::WallClockTimerWheel& timers() noexcept { return timers_; }
  const des::WallClockTimerWheel& timers() const noexcept { return timers_; }
  /// Seconds since loop construction (monotonic). Any thread.
  double now() const { return timers_.now(); }

  /// Register a readable-fd handler. The fd must be non-blocking.
  /// Loop thread, or while the loop is not running.
  void add_fd(int fd, FdHandler handler);
  void remove_fd(int fd);

  /// Run once per iteration after timers, before the loop sleeps —
  /// transports flush their send batches here. Returns a handle for
  /// remove_flush_hook (detach before the hook's captures die). Loop
  /// thread or stopped.
  std::uint64_t add_flush_hook(Task hook);
  void remove_flush_hook(std::uint64_t handle);

  /// Enqueue a task for the loop thread; wakes the loop. Safe from any
  /// thread. After the loop has fully stopped (thread joined, queue
  /// drained) the task runs inline on the caller, so teardown posted
  /// around stop() never strands work.
  void post(Task task);

  /// Run the loop on the calling thread until stop().
  void run();
  /// Spawn a thread running run(). Idempotent while running; a stopped
  /// loop can be started again (start/stop churn is tested).
  void start() PROBEMON_EXCLUDES(lifecycle_mutex_);
  /// Request stop and join the loop thread (if started). Safe from any
  /// thread, including loop-thread callbacks (then it defers the join
  /// to the caller of start()/stop() on another thread... see .cpp).
  void stop() PROBEMON_EXCLUDES(lifecycle_mutex_);

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  bool on_loop_thread() const noexcept {
    return running() && std::this_thread::get_id() ==
                            loop_thread_.load(std::memory_order_acquire);
  }

  // --- scrape-safe statistics (atomics; any thread) -----------------------
  std::uint64_t wakeups() const noexcept {
    return wakeups_.load(std::memory_order_relaxed);
  }
  std::uint64_t fd_dispatches() const noexcept {
    return fd_dispatches_.load(std::memory_order_relaxed);
  }
  std::uint64_t tasks_run() const noexcept {
    return tasks_run_.load(std::memory_order_relaxed);
  }
  std::uint64_t timers_fired() const noexcept {
    return timers_fired_.load(std::memory_order_relaxed);
  }
  std::uint64_t timers_pending() const noexcept {
    return timers_pending_.load(std::memory_order_relaxed);
  }

  /// Export loop counters on `registry` (label loop=<name>):
  /// probemon_loop_wakeups_total, probemon_loop_fd_dispatches_total,
  /// probemon_loop_tasks_total, probemon_loop_timers_fired_total and
  /// the probemon_loop_timers_pending gauge. Callback-backed over the
  /// atomics above, so scrapes never touch loop-owned state. The
  /// registry must outlive the loop.
  void instrument(telemetry::Registry& registry,
                  const std::string& loop_name = "0");

 private:
  void run_iteration(bool& saw_stop);
  void drain_tasks();
  void wake();
  void dispatch(int fd, std::uint32_t events);

  Config config_;
  des::WallClockTimerWheel timers_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd behind post()/stop()

  /// Loop-confined (modified pre-start or on the loop thread).
  std::unordered_map<int, FdHandler> handlers_;
  std::vector<std::pair<std::uint64_t, Task>> flush_hooks_;
  std::uint64_t next_hook_id_ = 1;

  mutable util::Mutex task_mutex_{"runtime.EventLoop.tasks"};
  std::vector<Task> tasks_ PROBEMON_GUARDED_BY(task_mutex_);
  /// False once the loop has drained its final task batch; post() then
  /// runs tasks inline on the caller.
  bool accepting_tasks_ PROBEMON_GUARDED_BY(task_mutex_) = true;

  mutable util::Mutex lifecycle_mutex_{"runtime.EventLoop.lifecycle"};
  std::thread thread_ PROBEMON_GUARDED_BY(lifecycle_mutex_);

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::thread::id> loop_thread_{};

  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> fd_dispatches_{0};
  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> timers_fired_{0};
  std::atomic<std::uint64_t> timers_pending_{0};
};

}  // namespace probemon::runtime
