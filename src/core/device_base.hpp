// Common device behaviour shared by SAPP and DCPP devices.
//
// A device is attached to the network, answers probes while present, and
// can depart either gracefully (sends bye to recent probers) or silently
// (simply stops answering — the failure mode the probe protocols exist to
// detect). Replies are issued after a uniform computation delay, matching
// the "maximal computation time of the device" in the paper's timeout
// calibration.
//
// The reply rules themselves (probe gate, reply header, the piggybacked
// last two distinct probers of paper section 2, the SAPP and DCPP steps)
// live in core/device_core.hpp, shared with the reactor's devices.
//
// All mutable protocol state (presence, probe counters, the service
// queue, the pending reply) lives in a `core::EntityArena` slab addressed
// by a generation-tagged `DeviceId`; this object is a thin behaviour
// wrapper, so a million devices share contiguous storage instead of a
// deque and heap node each.
#pragma once

#include <array>
#include <cstdint>

#include "core/config.hpp"
#include "core/entity_arena.hpp"
#include "core/observer.hpp"
#include "des/simulation.hpp"
#include "net/network.hpp"

namespace probemon::core {

class DeviceBase : public net::INetworkClient {
 public:
  DeviceBase(des::Simulation& sim, net::Network& network, EntityArena& arena,
             ComputeConfig compute, ProtocolObserver* observer);
  ~DeviceBase() override;

  DeviceBase(const DeviceBase&) = delete;
  DeviceBase& operator=(const DeviceBase&) = delete;

  net::NodeId id() const noexcept { return id_; }
  /// Arena handle for this device's state slab.
  DeviceId entity_id() const noexcept { return did_; }
  bool present() const noexcept { return state().present; }

  /// Crash-style departure: the device stays attached (so probes are
  /// still *delivered*) but never answers again.
  void go_silent();

  /// Graceful departure: sends bye to the last known probers, then goes
  /// silent.
  void leave_gracefully();

  /// Rejoin after a silent period.
  void come_back();

  /// Total probes accepted since creation (including ones still queued
  /// for processing).
  std::uint64_t probes_received() const noexcept {
    return state().probes_received;
  }

  /// Probes waiting for the device's single-threaded processor.
  std::size_t service_queue_length() const noexcept {
    return state().queue_len;
  }

  /// Ids of the last two distinct probers (kInvalidNode when unknown).
  const std::array<net::NodeId, 2>& last_probers() const noexcept {
    return state().last_probers;
  }

  // INetworkClient:
  void on_message(const net::Message& msg) final;

 protected:
  /// Fill the protocol-specific reply payload for a probe serviced at
  /// time `t`. The base class has already prepared the reply header
  /// (core::begin_reply).
  virtual void fill_reply(double t, net::Message& reply) = 0;

  /// Hook for subclasses needing per-probe state (e.g. load measurement).
  virtual void on_probe_accepted(const net::Message& /*probe*/,
                                 double /*t*/) {}

  des::Simulation& sim() noexcept { return sim_; }
  net::Network& network() noexcept { return network_; }
  ProtocolObserver* observer() noexcept { return observer_; }
  void notify_delta_changed(std::uint64_t delta);

 private:
  DeviceState& state() noexcept { return arena_.device(did_); }
  const DeviceState& state() const noexcept { return arena_.device(did_); }
  void start_service();

  des::Simulation& sim_;
  net::Network& network_;
  EntityArena& arena_;
  ComputeConfig compute_;
  ProtocolObserver* observer_;
  util::Rng compute_rng_;
  DeviceId did_;
  net::NodeId id_ = net::kInvalidNode;
};

}  // namespace probemon::core
