// SAPP device (paper section 2, "Device behavior").
//
// Maintains a probe counter pc, incremented by Delta = L_ideal / L_nom on
// every probe; the reply carries the just-updated pc. CPs derive their
// experienced load from consecutive pc values, so Delta is the device's
// lever for slowing everyone down: doubling Delta makes the device look
// twice as busy.
//
// The optional overload-control extension implements exactly that lever:
// the device measures its own recent probe load and doubles/halves Delta
// when the load leaves [L_nom/f, f*L_nom].
#pragma once

#include <cstdint>
#include <deque>

#include "core/device_base.hpp"

namespace probemon::core {

class SappDevice final : public DeviceBase {
 public:
  SappDevice(des::Simulation& sim, net::Network& network, EntityArena& arena,
             SappDeviceConfig config, ProtocolObserver* observer = nullptr);

  const SappDeviceConfig& config() const noexcept { return config_; }
  std::uint64_t probe_counter() const noexcept { return pc_; }
  std::uint64_t delta() const noexcept { return delta_; }

  /// Manually change Delta (e.g. to script a "device got busy" event).
  void set_delta(std::uint64_t delta);

  /// Probe load measured by the device itself over the adapt window.
  double measured_load() const;

 protected:
  void fill_reply(double t, net::Message& reply) override;
  void on_probe_accepted(const net::Message& probe, double t) override;

 private:
  void adapt_delta();

  SappDeviceConfig config_;
  std::uint64_t pc_ = 0;
  std::uint64_t delta_;
  std::uint64_t base_delta_;
  std::deque<double> recent_probe_times_;
  std::unique_ptr<des::Simulation::Periodic> adapt_task_;
};

}  // namespace probemon::core
