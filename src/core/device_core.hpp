// The device's reply rules (paper sections 2 and 4), written once as
// sans-IO functions over state the caller holds. core::DeviceBase
// (DES: arena slab, applied when the serial processor takes a probe up)
// and runtime::AsyncDeviceBase (reactor: loop-confined members, applied
// on receipt) keep their own storage and call the same code:
//
//   if (!accepts_probe(probe, present)) return;
//   begin_reply(probe, self, probers, reply);
//   pc = sapp_step(pc, delta, reply);                 // SAPP, or
//   dcpp_grant(self, nt, t, config, observer, reply); // DCPP
#pragma once

#include <array>
#include <cstdint>

#include "check/contract.hpp"
#include "core/config.hpp"
#include "core/observer.hpp"
#include "net/message.hpp"

namespace probemon::core {

/// Ids of the last two *distinct* CPs that probed a device, most recent
/// first (kInvalidNode when unknown) — the overlay seed of paper §2.
using Probers = std::array<net::NodeId, 2>;

/// The probe gate: a present device accepts probes, nothing else.
inline bool accepts_probe(const net::Message& msg, bool present) noexcept {
  return present && msg.kind == net::MessageKind::kProbe;
}

/// Make `reply` the reply to `probe` from device `self`: kind/from/to/
/// cycle/attempt, plus the last two distinct probers *before* this one
/// piggybacked (paper §2). Then records probe.from as the most recent
/// prober. Writes in place, so the DES device fills its pending-reply
/// slot without a copy.
inline void begin_reply(const net::Message& probe, net::NodeId self,
                        Probers& probers, net::Message& reply) noexcept {
  reply = net::Message{};
  reply.kind = net::MessageKind::kReply;
  reply.from = self;
  reply.to = probe.from;
  reply.cycle = probe.cycle;
  reply.attempt = probe.attempt;
  reply.last_probers = probers;
  if (probe.from != probers[0]) {  // a repeat is not a new prober
    probers[1] = probers[0];
    probers[0] = probe.from;
  }
}

/// SAPP step (paper §2): pc += Delta per probe; the reply carries the
/// updated counter. Returns it for the caller to store.
inline std::uint64_t sapp_step(std::uint64_t pc, std::uint64_t delta,
                               net::Message& reply) noexcept {
  reply.pc = pc + delta;
  return reply.pc;
}

/// The DCPP wait granted to a probe serviced at `t` by a device whose
/// schedule frontier is `nt`: max{nt, t} + Delta(nt, t) - t, with
/// Delta(nt, t) = max{delta_min, d_min - (max{nt, t} - t)} (paper §4;
/// see dcpp_device.hpp for why the backlog term is clamped at zero).
/// Pure: the auditor and property tests evaluate it without a device.
/// Defined in dcpp_device.cpp, where the DES device's grant inlines it.
double dcpp_wait(double nt, double t, const DcppDeviceConfig& config) noexcept;

/// DCPP step (paper §4): grant the probe serviced at `t` the slot
/// t + dcpp_wait(nt, t), advance the frontier `nt` to it, check the
/// schedule invariant, report the grant to `observer` (may be null) and
/// put the wait into the reply.
inline void dcpp_grant(net::NodeId self, double& nt, double t,
                       const DcppDeviceConfig& config,
                       ProtocolObserver* observer, net::Message& reply) {
  const double wait = dcpp_wait(nt, t, config);
  const double granted = t + wait;
  PROBEMON_INVARIANT(granted >= nt && wait + 1e-12 >= config.d_min,
                     "DCPP grant broke the schedule: nt " << nt << " -> "
                         << granted << ", wait " << wait << " (d_min "
                         << config.d_min << ")");
  if (observer) observer->on_slot_granted(self, t, nt, granted);
  nt = granted;
  reply.grant_delay = wait;
}

}  // namespace probemon::core
