#include "runtime/event_loop/async_device.hpp"

#include <stdexcept>
#include <string>

namespace probemon::runtime {

namespace {

/// SAPP's adaptive Δ is driven by a trailing window of probe instants
/// and a periodic re-evaluation, both of which the reactor device omits,
/// so a config asking for it is refused rather than ignored.
const core::SappDeviceConfig& reactor_config(
    const core::SappDeviceConfig& config) {
  config.validate();
  if (config.adaptive_delta) {
    throw std::invalid_argument(
        "AsyncSappDevice: adaptive_delta is not supported (the reactor "
        "device keeps no load window; Delta stays fixed)");
  }
  return config;
}

}  // namespace

AsyncDeviceBase::AsyncDeviceBase(AsyncUdpTransport& transport)
    : transport_(transport) {
  id_ = transport_.attach([this](const net::Message& msg) { handle(msg); });
}

AsyncDeviceBase::~AsyncDeviceBase() { shutdown(); }

void AsyncDeviceBase::shutdown() {
  if (detached_) return;
  detached_ = true;
  transport_.detach(id_);
}

void AsyncDeviceBase::handle(const net::Message& msg) {
  if (!core::accepts_probe(msg, present())) return;
  probes_received_.fetch_add(1, std::memory_order_relaxed);
  net::Message reply;
  core::begin_reply(msg, id_, probers_, reply);
  fill_reply(transport_.loop().now(), reply);
  transport_.send(reply);
}

void AsyncDeviceBase::instrument(telemetry::Registry& registry,
                                 double nominal_load) {
  const telemetry::Labels labels{{"device", std::to_string(id_)}};
  registry.counter_callback(
      "probemon_device_probes_received_total",
      [this] { return static_cast<double>(probes_received()); },
      "Probes accepted by the device", labels);
  registry.gauge("probemon_device_nominal_load",
                 "Protocol nominal load cap L_nom (probes/s)", labels)
      .set(nominal_load);
}

AsyncSappDevice::AsyncSappDevice(AsyncUdpTransport& transport,
                                 core::SappDeviceConfig config)
    : AsyncDeviceBase(transport),
      config_(reactor_config(config)),
      delta_(config.delta()) {}

void AsyncSappDevice::fill_reply(double /*t*/, net::Message& reply) {
  pc_.store(core::sapp_step(pc_.load(std::memory_order_relaxed), delta_,
                            reply),
            std::memory_order_relaxed);
}

AsyncDcppDevice::AsyncDcppDevice(AsyncUdpTransport& transport,
                                 core::DcppDeviceConfig config,
                                 core::ProtocolObserver* observer)
    : AsyncDeviceBase(transport), config_(config), observer_(observer) {
  config_.validate();
}

void AsyncDcppDevice::fill_reply(double t, net::Message& reply) {
  core::dcpp_grant(id(), nt_, t, config_, observer_, reply);
}

}  // namespace probemon::runtime
