#include "core/sapp_device.hpp"

#include <algorithm>

#include "core/device_core.hpp"

namespace probemon::core {

SappDevice::SappDevice(des::Simulation& sim, net::Network& network,
                       EntityArena& arena, SappDeviceConfig config,
                       ProtocolObserver* observer)
    : DeviceBase(sim, network, arena, config.compute, observer),
      config_(config),
      delta_(config.delta()),
      base_delta_(config.delta()) {
  config_.validate();
  if (config_.adaptive_delta) {
    adapt_task_ = sim.every(config_.adapt_period,
                            [this](double) { adapt_delta(); });
  }
}

void SappDevice::set_delta(std::uint64_t delta) {
  if (delta == 0) throw std::invalid_argument("SappDevice: delta > 0");
  delta_ = delta;
  notify_delta_changed(delta_);
}

void SappDevice::fill_reply(double /*t*/, net::Message& reply) {
  pc_ = sapp_step(pc_, delta_, reply);
}

void SappDevice::on_probe_accepted(const net::Message& /*probe*/, double t) {
  if (!config_.adaptive_delta) return;
  recent_probe_times_.push_back(t);
  const double horizon = t - config_.adapt_window;
  while (!recent_probe_times_.empty() && recent_probe_times_.front() < horizon) {
    recent_probe_times_.pop_front();
  }
}

double SappDevice::measured_load() const {
  return static_cast<double>(recent_probe_times_.size()) /
         config_.adapt_window;
}

void SappDevice::adapt_delta() {
  const double load = measured_load();
  const double high = config_.overload_factor * config_.l_nom;
  const double low = config_.l_nom / config_.overload_factor;
  if (load > high) {
    // Look twice as busy: CPs will eventually halve the probe load.
    set_delta(delta_ * 2);
  } else if (load < low && delta_ > base_delta_) {
    set_delta(std::max(base_delta_, delta_ / 2));
  }
}

}  // namespace probemon::core
