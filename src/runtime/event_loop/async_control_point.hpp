// Async control points: the reactor's driver of the probe cycle.
//
// The cycle itself (probes, TOF/TOS deadlines, absence on exhaustion,
// the stale-reply test and the SAPP observation rule) is the sans-IO
// core::ProbeCycle the DES control points drive too. This class runs it
// on one EventLoop with one timer-wheel slot (the cycle's timeout, else
// the protocol-chosen inter-cycle delay), so 10^5 CPs cost a few hundred
// bytes each instead of a thread each. Reactor-specific points:
//
//   * monitoring STOPS once the device is declared absent (the paper's
//     CP behaviour; re-watch to resume), so continue_after_absence is
//     rejected;
//   * rtt = reply arrival − last send, so the auditor's
//     rtt ≤ end − last_send bound holds with equality;
//   * CycleInfo/ProbeCycleTrace `attempts` counts the probes sent.
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
#include "core/probe_cycle.hpp"
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
    /// Invoked (on the loop thread) once per completed cycle. A failed
    /// cycle is the absence declaration, after which probing stops.
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
  /// Inter-cycle delay after a successful cycle (loop thread); `t_obs`
  /// is the cycle's observation instant (ProbeCycle::Verdict::t_obs).
  virtual double next_delay(const net::Message& reply, double t_obs) = 0;
  /// A reply from the device that the cycle rejected — a duplicate or a
  /// leftover from an earlier cycle — observed at `t_obs`. Default
  /// ignores it.
  virtual void on_stale_reply(const net::Message& /*reply*/,
                              double /*t_obs*/) {}

 private:
  void handle(const net::Message& msg);
  void begin_cycle();
  void transmit(const core::ProbeCycle::Send& send);
  void on_timeout();
  void report(const CycleInfo& info);
  void disarm();

  AsyncUdpTransport& transport_;
  net::NodeId device_;
  Callbacks callbacks_;
  net::NodeId id_;
  core::ProbeCycle cycle_;

  bool started_ = false;
  bool stopped_ = false;
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

/// Throws std::invalid_argument on an invalid config or on
/// continue_after_absence (the reactor stops monitoring on absence).
class AsyncSappControlPoint final : public AsyncControlPointBase {
 public:
  AsyncSappControlPoint(AsyncUdpTransport& transport, net::NodeId device,
                        core::SappCpConfig config, Callbacks callbacks = {});
  ~AsyncSappControlPoint() override { stop(); }

  /// The adaptation's current delay δ (moves on every observed reply,
  /// including rejected ones when use_every_reply is set).
  double delta() const noexcept {
    return delta_.load(std::memory_order_relaxed);
  }

 protected:
  double next_delay(const net::Message& reply, double t_obs) override;
  void on_stale_reply(const net::Message& reply, double t_obs) override;

 private:
  double observe(const net::Message& reply, double t_obs);

  core::SappCpConfig config_;
  core::SappAdaptation adaptation_;
  std::atomic<double> delta_;
};

/// Throws std::invalid_argument on an invalid config or on
/// continue_after_absence (the reactor stops monitoring on absence).
class AsyncDcppControlPoint final : public AsyncControlPointBase {
 public:
  AsyncDcppControlPoint(AsyncUdpTransport& transport, net::NodeId device,
                        core::DcppCpConfig config, Callbacks callbacks = {});
  ~AsyncDcppControlPoint() override { stop(); }

 protected:
  double next_delay(const net::Message& reply, double t_obs) override;
};

}  // namespace probemon::runtime
