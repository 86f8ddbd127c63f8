#include "core/probe_cycle.hpp"

#include <stdexcept>

#include "check/contract.hpp"

namespace probemon::core {

ProbeCycle::ProbeCycle(const TimeoutConfig& timeouts) : timeouts_(timeouts) {
  timeouts_.validate();
}

ProbeCycle::Send ProbeCycle::start(double now) {
  if (active_) throw std::logic_error("ProbeCycle::start: cycle active");
  active_ = true;
  ++cycle_;
  attempt_ = 0;
  cycle_start_time_ = now;
  return transmit(now);
}

ProbeCycle::Send ProbeCycle::transmit(double now) {
  PROBEMON_INVARIANT(attempt_ <= timeouts_.max_retransmissions,
                     "probe cycle " << cycle_ << " transmitting attempt "
                         << int(attempt_) << " beyond the paper's bound of "
                         << timeouts_.max_retransmissions
                         << " retransmissions");
  last_send_time_ = now;
  return Send{cycle_, attempt_,
              now + (attempt_ == 0 ? timeouts_.tof : timeouts_.tos)};
}

ProbeCycle::Timeout ProbeCycle::on_timeout(double now) {
  PROBEMON_CONTRACT(active_, "ProbeCycle::on_timeout without an active cycle");
  if (attempt_ < timeouts_.max_retransmissions) {
    ++attempt_;
    return Timeout{false, transmit(now)};
  }
  active_ = false;
  ++cycles_failed_;
  return Timeout{true, {}};
}

ProbeCycle::Verdict ProbeCycle::offer_reply(const net::Message& reply,
                                            double now) {
  Verdict v;
  v.t_obs = now;
  // Stale: no cycle open, or a reply to an abandoned/completed cycle.
  if (!active_ || reply.cycle != cycle_) return v;
  active_ = false;
  ++cycles_succeeded_;
  v.accepted = true;
  if (reply.attempt != 0) v.t_obs = last_send_time_;
  v.rtt = now - last_send_time_;
  v.answered = static_cast<std::uint8_t>(reply.attempt + 1);
  v.sent = static_cast<std::uint8_t>(attempt_ + 1);
  return v;
}

}  // namespace probemon::core
