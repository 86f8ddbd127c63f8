#include "core/dcpp_device.hpp"

#include <algorithm>

namespace probemon::core {

double dcpp_wait(double nt, double t, const DcppDeviceConfig& config) noexcept {
  const double frontier = std::max(nt, t);
  const double backlog = frontier - t;  // >= 0 by construction
  const double delta = std::max(config.delta_min, config.d_min - backlog);
  const double next = frontier + delta;
  return next - t;
}

DcppDevice::DcppDevice(des::Simulation& sim, net::Network& network,
                       EntityArena& arena, DcppDeviceConfig config,
                       ProtocolObserver* observer)
    : DeviceBase(sim, network, arena, config.compute, observer),
      config_(config) {
  config_.validate();
}

void DcppDevice::fill_reply(double t, net::Message& reply) {
  dcpp_grant(id(), nt_, t, config_, observer(), reply);
}

}  // namespace probemon::core
