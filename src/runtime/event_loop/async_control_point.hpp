// Async control points: the bounded-retransmission probe cycle as an
// event-loop state machine.
//
// The cycle — first probe, TOF timeout, up to max_retransmissions
// TOS-spaced retries, absence declaration on exhaustion,
// protocol-chosen inter-cycle delay on success — runs as timer
// callbacks on one EventLoop, so 10^5 CPs cost two timer slots and a
// few hundred bytes each instead of a thread each. Protocol points
// shared with the DES control points (core::ProbeCycle) and checked by
// the invariant auditor:
//
//   * observation rule — a clean (attempt 0) success observes at the
//     reply arrival instant, a retransmitted success at the last send
//     instant;
//   * stale replies from older cycles are ignored;
//   * monitoring STOPS once the device is declared absent (the paper's
//     CP behaviour; re-watch to resume);
//   * rtt = reply arrival − last send, so the auditor's
//     rtt ≤ end − last_send bound holds with equality.
//
// Callback tiers: on_cycle (POD summary, no allocation — the one the
// 100k-endpoint service uses) always fires; on_cycle_trace (full
// ProbeCycleTrace with per-attempt sends) is only assembled when set,
// keeping the hot path allocation-free.
//
// Threading: start()/stop()/dtor and the callbacks are loop-confined
// (loop thread, or while the loop is not running); the scrape accessors
// are atomics, safe from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "core/config.hpp"
#include "core/sapp_adaptation.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "telemetry/probe_tracer.hpp"

namespace probemon::runtime {

class AsyncControlPointBase {
 public:
  /// Allocation-free per-cycle summary (the scale-path callback).
  struct CycleInfo {
    bool success = false;
    double start = 0.0;       ///< first send instant
    double end = 0.0;         ///< reply acceptance / absence declaration
    double rtt = 0.0;         ///< last send -> reply; 0 on failure
    double next_delay = 0.0;  ///< inter-cycle delay chosen; 0 on failure
    std::uint8_t attempts = 0;
  };

  struct Callbacks {
    /// Invoked (on the loop thread) when the device is declared absent.
    std::function<void(net::NodeId device, double t)> on_absent;
    /// Invoked after every successful cycle with the chosen delay.
    std::function<void(double t, double delay)> on_cycle_success;
    /// Invoked once per completed cycle, success or failure.
    std::function<void(const CycleInfo&)> on_cycle;
    /// Full-span record with per-attempt send instants; costs a heap
    /// vector per CP, so leave unset at 10^5 scale unless tracing.
    std::function<void(const telemetry::ProbeCycleTrace&)> on_cycle_trace;
  };

  AsyncControlPointBase(AsyncUdpTransport& transport, net::NodeId device,
                        const core::TimeoutConfig& timeouts,
                        Callbacks callbacks);
  virtual ~AsyncControlPointBase();

  AsyncControlPointBase(const AsyncControlPointBase&) = delete;
  AsyncControlPointBase& operator=(const AsyncControlPointBase&) = delete;

  net::NodeId id() const noexcept { return id_; }
  net::NodeId device() const noexcept { return device_; }

  /// Begin probing after `initial_jitter_s` (loop-confined; call at
  /// most once). The jitter desynchronizes fleet-scale cycle starts —
  /// 10^5 CPs firing their first probe in the same tick is a self-made
  /// burst the paper's protocols never face.
  void start(double initial_jitter_s = 0.0);

  /// Cancel the pending timer and detach (idempotent, loop-confined).
  void stop();

  // --- scrape-safe statistics (atomics; any thread) -----------------------
  bool device_considered_present() const noexcept {
    return device_present_.load(std::memory_order_relaxed);
  }
  std::uint64_t cycles_succeeded() const noexcept {
    return cycles_succeeded_.load(std::memory_order_relaxed);
  }
  std::uint64_t cycles_failed() const noexcept {
    return cycles_failed_.load(std::memory_order_relaxed);
  }
  std::uint64_t probes_sent() const noexcept {
    return probes_sent_.load(std::memory_order_relaxed);
  }
  double current_delay() const noexcept {
    return current_delay_.load(std::memory_order_relaxed);
  }

 protected:
  /// Inter-cycle delay after a successful cycle (loop thread).
  virtual double next_delay(const net::Message& reply, double t_obs) = 0;

 private:
  void handle(const net::Message& msg);
  void begin_cycle();
  void send_attempt();
  void on_timeout();
  void declare_absent();
  void disarm();

  AsyncUdpTransport& transport_;
  net::NodeId device_;
  core::TimeoutConfig timeouts_;
  Callbacks callbacks_;
  net::NodeId id_;

  bool started_ = false;
  bool stopped_ = false;
  bool awaiting_reply_ = false;
  std::uint64_t cycle_ = 0;
  int attempt_ = 0;
  double cycle_start_ = 0.0;
  double sent_at_ = 0.0;
  des::EventId timer_{};

  /// Reused across cycles (sends vector only populated when the trace
  /// callback is set).
  telemetry::ProbeCycleTrace trace_;

  std::atomic<bool> device_present_{true};
  std::atomic<std::uint64_t> cycles_succeeded_{0};
  std::atomic<std::uint64_t> cycles_failed_{0};
  std::atomic<std::uint64_t> probes_sent_{0};
  std::atomic<double> current_delay_{0.0};
};

class AsyncSappControlPoint final : public AsyncControlPointBase {
 public:
  AsyncSappControlPoint(AsyncUdpTransport& transport, net::NodeId device,
                        core::SappCpConfig config, Callbacks callbacks = {});
  ~AsyncSappControlPoint() override { stop(); }

  double delta() const noexcept { return current_delay(); }

 protected:
  double next_delay(const net::Message& reply, double t_obs) override;

 private:
  core::SappCpConfig config_;
  core::SappAdaptation adaptation_;
};

class AsyncDcppControlPoint final : public AsyncControlPointBase {
 public:
  AsyncDcppControlPoint(AsyncUdpTransport& transport, net::NodeId device,
                        core::DcppCpConfig config, Callbacks callbacks = {});
  ~AsyncDcppControlPoint() override { stop(); }

 protected:
  double next_delay(const net::Message& reply, double t_obs) override;

 private:
  core::DcppCpConfig config_;
};

}  // namespace probemon::runtime
