// DCPP device (paper section 4, "Device behavior").
//
// Instead of exporting a load estimate, the device *schedules* its
// probers. It remembers nt, the latest instant already handed out; a
// probe arriving at time t is granted the slot
//
//     nt' = max{nt, t} + Delta(nt, t),
//     Delta(nt, t) = max{ delta_min, d_min - (max{nt, t} - t) }
//
// and the reply carries the wait nt' - t. The two constraints this
// encodes (paper (i) and (ii)): consecutive granted slots are >= delta_min
// apart, bounding the device load by L_nom = 1/delta_min; and every CP is
// granted a wait of at least d_min, so no CP probes faster than
// f_max = 1/d_min.
//
// Deviation note: the paper's literal Delta uses (nt - t) unclamped.
// When the schedule is stale (nt << t, e.g. first prober after an idle
// stretch), the literal formula grants d_min + (t - nt) — an unbounded
// wait growing with the idle time, which is clearly not intended (it
// would punish the first CP to find an idle device). We clamp the backlog
// term at zero, i.e. use max{nt, t} inside Delta; for nt >= t — the only
// regime the paper's analysis exercises — the two formulas coincide.
#pragma once

#include <cstdint>

#include "core/device_base.hpp"
#include "core/device_core.hpp"

namespace probemon::core {

class DcppDevice final : public DeviceBase {
 public:
  DcppDevice(des::Simulation& sim, net::Network& network, EntityArena& arena,
             DcppDeviceConfig config, ProtocolObserver* observer = nullptr);

  const DcppDeviceConfig& config() const noexcept { return config_; }

  /// Latest granted slot instant (the schedule frontier).
  double next_slot() const noexcept { return nt_; }

  /// The granted wait for a probe arriving at t given frontier nt,
  /// without mutating state (core::dcpp_wait).
  static double grant(double nt, double t, const DcppDeviceConfig& config) {
    return dcpp_wait(nt, t, config);
  }

 protected:
  void fill_reply(double t, net::Message& reply) override;

 private:
  DcppDeviceConfig config_;
  double nt_ = 0.0;
};

}  // namespace probemon::core
