// Async devices: the SAPP/DCPP reply rules on the event loop.
//
// The rules are core/device_core.hpp, shared with the DES devices
// (probe gate, reply header with the last two distinct probers
// piggybacked, SAPP's pc += Δ, DCPP's grant with its invariant and
// on_slot_granted). Here they run on receipt, loop-confined and
// lock-free: the reactor's single thread owns all device state, so a
// probe is handled with zero mutex traffic and zero allocation, which
// is what lets one process answer for 10^5 endpoints. The only
// cross-thread surface is go_silent()/come_back() (atomic flag, so
// tests and demos can kill a device from the main thread) and the
// scrape counters.
//
// AsyncDcppDevice reports grants to an optional observer, so an
// InvariantAuditor with audit_dcpp audits the reactor's schedule.
// Receipts are not reported: the reactor's CPs report through
// audit_cycle, never on_probe_sent, so the auditor's
// counter_consistency would flag every probe. A SAPP device's Δ is
// fixed here, so it has nothing to report and takes no observer.
//
// Deliberately omitted: a trailing-window experienced-load series (a
// per-device std::deque of probe instants is exactly the kind of
// per-endpoint cost this runtime exists to avoid; the transport's
// aggregate counters and the loop histograms cover the load story at
// scale), and with it SAPP's adaptive Δ, which that window drives.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/config.hpp"
#include "core/device_core.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "telemetry/registry.hpp"

namespace probemon::runtime {

class AsyncDeviceBase {
 public:
  /// Attaches to `transport` (loop-confined, like all transport calls).
  explicit AsyncDeviceBase(AsyncUdpTransport& transport);
  virtual ~AsyncDeviceBase();

  AsyncDeviceBase(const AsyncDeviceBase&) = delete;
  AsyncDeviceBase& operator=(const AsyncDeviceBase&) = delete;

  net::NodeId id() const noexcept { return id_; }

  /// Crash-style departure: stop answering (stays attached). Safe from
  /// any thread.
  void go_silent() noexcept {
    present_.store(false, std::memory_order_relaxed);
  }
  void come_back() noexcept {
    present_.store(true, std::memory_order_relaxed);
  }
  bool present() const noexcept {
    return present_.load(std::memory_order_relaxed);
  }

  std::uint64_t probes_received() const noexcept {
    return probes_received_.load(std::memory_order_relaxed);
  }

  /// Last two distinct probers, most recent first (loop thread, or
  /// stopped loop).
  const core::Probers& last_probers() const noexcept { return probers_; }

  /// Per-device metrics (device=<id> label):
  /// probemon_device_probes_received_total and the
  /// probemon_device_nominal_load gauge. Per-device series are a
  /// cardinality cost — intended for small fleets and tests, not for
  /// 10^5 endpoints. The device must outlive the registry entries.
  void instrument(telemetry::Registry& registry, double nominal_load);

 protected:
  /// Protocol-specific reply payload for a probe received at `t`; runs
  /// on the loop thread. The header is already filled
  /// (core::begin_reply).
  virtual void fill_reply(double t, net::Message& reply) = 0;

  /// Detach from the transport (idempotent; loop-confined). Subclass
  /// destructors call this so no handler can virtual-dispatch into a
  /// half-destroyed object.
  void shutdown();

 private:
  void handle(const net::Message& msg);

  AsyncUdpTransport& transport_;
  net::NodeId id_;
  bool detached_ = false;
  core::Probers probers_{net::kInvalidNode, net::kInvalidNode};
  std::atomic<bool> present_{true};
  std::atomic<std::uint64_t> probes_received_{0};
};

/// SAPP device: pc += Delta per probe; reply carries pc. Refuses
/// adaptive_delta (see above).
class AsyncSappDevice final : public AsyncDeviceBase {
 public:
  AsyncSappDevice(AsyncUdpTransport& transport, core::SappDeviceConfig config);
  ~AsyncSappDevice() override { shutdown(); }

  std::uint64_t probe_counter() const noexcept {
    return pc_.load(std::memory_order_relaxed);
  }

  using AsyncDeviceBase::instrument;
  void instrument(telemetry::Registry& registry) {
    AsyncDeviceBase::instrument(registry, config_.l_nom);
  }

 protected:
  void fill_reply(double t, net::Message& reply) override;

 private:
  core::SappDeviceConfig config_;
  /// Written on the loop thread, readable from any (tests scrape it).
  std::atomic<std::uint64_t> pc_{0};
  std::uint64_t delta_;
};

/// DCPP device: schedules probers via core::dcpp_grant.
class AsyncDcppDevice final : public AsyncDeviceBase {
 public:
  /// `observer` (may be null) must outlive the device; its hooks run on
  /// the loop thread.
  AsyncDcppDevice(AsyncUdpTransport& transport, core::DcppDeviceConfig config,
                  core::ProtocolObserver* observer = nullptr);
  ~AsyncDcppDevice() override { shutdown(); }

  /// Next grantable probe instant (loop thread, or stopped loop).
  double next_slot() const noexcept { return nt_; }

  using AsyncDeviceBase::instrument;
  void instrument(telemetry::Registry& registry) {
    AsyncDeviceBase::instrument(registry, config_.l_nom());
  }

 protected:
  void fill_reply(double t, net::Message& reply) override;

 private:
  core::DcppDeviceConfig config_;
  core::ProtocolObserver* observer_;
  double nt_ = 0.0;  ///< loop-confined
};

}  // namespace probemon::runtime
