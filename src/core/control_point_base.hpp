// Common control-point behaviour shared by SAPP and DCPP CPs.
//
// A CP monitors exactly one device (the paper studies one device and k
// CPs; device/CP groups are independent, section 3). The base class
// drives the probe cycle (core::ProbeCycle) with one timer — the cycle's
// timeout while a cycle is open, else the inter-cycle delay — and owns
// absence bookkeeping and the optional gossip dissemination of leave
// events over the last-two-probers overlay. Subclasses decide one thing:
// how long to wait after a successful cycle (SAPP: adaptive; DCPP: the
// device's grant).
//
// Mutable monitoring state (running flag, presence verdict, absence
// time, current delay, the overlay) lives in a `core::EntityArena` slab
// addressed by a generation-tagged `CpId`; the wrapper keeps only
// immutable identity, the cycle and the timer whose callback captures
// `this`.
#pragma once

#include <cstdint>
#include <span>

#include "core/config.hpp"
#include "core/entity_arena.hpp"
#include "core/observer.hpp"
#include "core/probe_cycle.hpp"
#include "des/simulation.hpp"
#include "net/network.hpp"

namespace probemon::core {

class ControlPointBase : public net::INetworkClient {
 public:
  ControlPointBase(des::Simulation& sim, net::Network& network,
                   EntityArena& arena, net::NodeId device,
                   const TimeoutConfig& timeouts, bool continue_after_absence,
                   ProtocolObserver* observer);
  ~ControlPointBase() override;

  ControlPointBase(const ControlPointBase&) = delete;
  ControlPointBase& operator=(const ControlPointBase&) = delete;

  net::NodeId id() const noexcept { return id_; }
  net::NodeId device() const noexcept { return device_; }
  /// Arena handle for this CP's state slab.
  CpId entity_id() const noexcept { return cid_; }

  /// Begin monitoring: the first probe cycle starts `initial_jitter`
  /// seconds from now (jitter desynchronizes joining bursts).
  void start(double initial_jitter = 0.0);

  /// Leave the network: abort any cycle, cancel timers, detach.
  void stop();

  bool running() const noexcept { return state().running; }
  /// False once this CP has declared or learned the device's absence.
  bool device_considered_present() const noexcept {
    return state().device_present;
  }
  /// Time the CP declared/learned absence (NaN while present).
  double absence_time() const noexcept { return state().absence_time; }

  /// Most recent inter-cycle delay (NaN before the first success).
  double current_delay() const noexcept { return state().current_delay; }

  const ProbeCycle& cycle() const noexcept { return cycle_; }

  /// Enable gossip forwarding of absence notifications with the given
  /// forwarding budget (extension; the paper mentions but does not
  /// analyze the dissemination phase).
  void enable_dissemination(std::uint8_t ttl) {
    state().dissemination_ttl = ttl;
  }

  /// Overlay neighbours learned from reply piggyback data.
  std::span<const net::NodeId> overlay_neighbors() const noexcept {
    const CpState& st = state();
    return {st.overlay.data(), st.overlay_count};
  }

  // INetworkClient:
  void on_message(const net::Message& msg) final;

 protected:
  /// Inter-cycle delay to apply after a successful cycle; `t_obs` is
  /// the cycle's observation instant (ProbeCycle::Verdict::t_obs).
  virtual double delay_after_success(const net::Message& reply,
                                     double t_obs) = 0;
  /// Delay before re-probing after a failed cycle when
  /// continue_after_absence is set.
  virtual double delay_after_failure() = 0;
  /// A reply from the device that did not complete the current cycle —
  /// a duplicate (the device answers every probe, so a retransmitted
  /// cycle yields several replies) or a leftover from an abandoned
  /// cycle. SAPP's load estimator consumes these (the paper phrases the
  /// L_exp rule over successive *replies*), observed at `t_obs`; default
  /// ignores them.
  virtual void on_stale_reply(const net::Message& /*reply*/,
                              double /*t_obs*/) {}

 private:
  CpState& state() noexcept { return arena_.cp(cid_); }
  const CpState& state() const noexcept { return arena_.cp(cid_); }
  void on_timer();
  void begin_cycle();
  void transmit(const ProbeCycle::Send& send);
  void handle_success(const net::Message& reply,
                      const ProbeCycle::Verdict& verdict);
  void handle_failure();
  void mark_absent(bool learned);
  void disseminate(net::NodeId subject, std::uint8_t ttl);
  void learn_overlay(const net::Message& reply);
  void schedule_cycle(double delay);

  des::Simulation& sim_;
  net::Network& network_;
  EntityArena& arena_;
  net::NodeId device_;
  bool continue_after_absence_;
  ProtocolObserver* observer_;
  CpId cid_;
  net::NodeId id_ = net::kInvalidNode;
  ProbeCycle cycle_;
  des::Timer timer_;
};

}  // namespace probemon::core
