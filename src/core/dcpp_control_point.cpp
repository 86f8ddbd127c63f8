#include "core/dcpp_control_point.hpp"

#include <cmath>
#include <limits>

namespace probemon::core {

DcppControlPoint::DcppControlPoint(des::Simulation& sim, net::Network& network,
                                   EntityArena& arena, net::NodeId device,
                                   DcppCpConfig config,
                                   ProtocolObserver* observer)
    : ControlPointBase(sim, network, arena, device, config.timeouts,
                       config.continue_after_absence, observer),
      config_(config),
      last_grant_(std::numeric_limits<double>::quiet_NaN()) {
  config_.validate();
}

double DcppControlPoint::delay_after_success(const net::Message& reply,
                                             double /*t_obs*/) {
  last_grant_ = reply.grant_delay;
  return reply.grant_delay;
}

double DcppControlPoint::delay_after_failure() {
  // Without a grant (device unresponsive but we keep trying), fall back
  // to the last grant, or one second if none was ever received.
  return std::isnan(last_grant_) ? 1.0 : last_grant_;
}

}  // namespace probemon::core
