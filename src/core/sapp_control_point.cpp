#include "core/sapp_control_point.hpp"

namespace probemon::core {

SappControlPoint::SappControlPoint(des::Simulation& sim, net::Network& network,
                                   EntityArena& arena, net::NodeId device,
                                   SappCpConfig config,
                                   ProtocolObserver* observer)
    : ControlPointBase(sim, network, arena, device, config.timeouts,
                       config.continue_after_absence, observer),
      config_(config),
      adaptation_(config_) {
  config_.validate();
}

void SappControlPoint::on_stale_reply(const net::Message& reply,
                                      double t_obs) {
  if (!config_.use_every_reply) return;
  // Duplicate replies (the device answers every probe of a retransmitted
  // cycle) are load observations too: their (pc, t) pair spans only the
  // inter-duplicate gap, so L_exp spikes and the delay doubles. The new
  // delta takes effect when the next cycle completes.
  adaptation_.observe(reply.pc, t_obs);
}

}  // namespace probemon::core
