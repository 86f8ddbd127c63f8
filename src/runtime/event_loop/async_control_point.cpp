#include "runtime/event_loop/async_control_point.hpp"

namespace probemon::runtime {

AsyncControlPointBase::AsyncControlPointBase(
    AsyncUdpTransport& transport, net::NodeId device,
    const core::TimeoutConfig& timeouts, Callbacks callbacks)
    : transport_(transport),
      device_(device),
      timeouts_(timeouts),
      callbacks_(std::move(callbacks)) {
  timeouts_.validate();
  id_ = transport_.attach([this](const net::Message& msg) { handle(msg); });
}

AsyncControlPointBase::~AsyncControlPointBase() { stop(); }

void AsyncControlPointBase::start(double initial_jitter_s) {
  if (started_ || stopped_) return;
  started_ = true;
  if (initial_jitter_s > 0) {
    timer_ = transport_.loop().timers().schedule_after(
        initial_jitter_s, [this] { begin_cycle(); });
  } else {
    begin_cycle();
  }
}

void AsyncControlPointBase::stop() {
  if (stopped_) return;
  stopped_ = true;
  disarm();
  awaiting_reply_ = false;
  transport_.detach(id_);
}

void AsyncControlPointBase::disarm() {
  if (timer_.valid()) {
    transport_.loop().timers().cancel(timer_);
    timer_ = des::EventId{};
  }
}

void AsyncControlPointBase::begin_cycle() {
  timer_ = des::EventId{};
  if (stopped_) return;
  ++cycle_;
  attempt_ = 0;
  awaiting_reply_ = true;
  send_attempt();
}

void AsyncControlPointBase::send_attempt() {
  probes_sent_.fetch_add(1, std::memory_order_relaxed);
  sent_at_ = transport_.loop().now();
  if (attempt_ == 0) {
    cycle_start_ = sent_at_;
    if (callbacks_.on_cycle_trace) {
      trace_.cp = id_;
      trace_.device = device_;
      trace_.cycle = cycle_;
      trace_.start = sent_at_;
      trace_.rtt = 0.0;
      trace_.sends.clear();
    }
  }
  if (callbacks_.on_cycle_trace) trace_.sends.push_back(sent_at_);

  net::Message probe;
  probe.kind = net::MessageKind::kProbe;
  probe.from = id_;
  probe.to = device_;
  probe.cycle = cycle_;
  probe.attempt = static_cast<std::uint8_t>(attempt_);
  transport_.send(probe);

  const double deadline =
      sent_at_ + (attempt_ == 0 ? timeouts_.tof : timeouts_.tos);
  timer_ = transport_.loop().timers().schedule_at(deadline,
                                                  [this] { on_timeout(); });
}

void AsyncControlPointBase::on_timeout() {
  timer_ = des::EventId{};
  if (stopped_ || !awaiting_reply_) return;
  if (attempt_ < timeouts_.max_retransmissions) {
    ++attempt_;
    send_attempt();
    return;
  }
  declare_absent();
}

void AsyncControlPointBase::handle(const net::Message& msg) {
  if (msg.kind != net::MessageKind::kReply || msg.from != device_) return;
  // Stale replies — an older cycle's retransmission answered late, or a
  // reply after absence was declared — are dropped, same as the DES CP.
  if (stopped_ || !awaiting_reply_ || msg.cycle != cycle_) return;
  disarm();
  awaiting_reply_ = false;

  const double now = transport_.loop().now();
  // Same observation rule as the DES CPs: a clean success uses
  // the reply arrival instant, a retransmitted success the send time.
  const double t_obs = attempt_ == 0 ? now : sent_at_;
  const double rtt = now - sent_at_;
  const double delay = next_delay(msg, t_obs);
  const auto attempts = static_cast<std::uint8_t>(attempt_ + 1);

  current_delay_.store(delay, std::memory_order_relaxed);
  device_present_.store(true, std::memory_order_relaxed);
  cycles_succeeded_.fetch_add(1, std::memory_order_relaxed);

  if (callbacks_.on_cycle) {
    CycleInfo info;
    info.success = true;
    info.start = cycle_start_;
    info.end = now;
    info.rtt = rtt;
    info.next_delay = delay;
    info.attempts = attempts;
    callbacks_.on_cycle(info);
  }
  if (callbacks_.on_cycle_trace) {
    trace_.end = now;
    trace_.attempts = attempts;
    trace_.success = true;
    trace_.rtt = rtt;
    callbacks_.on_cycle_trace(trace_);
  }
  if (callbacks_.on_cycle_success) callbacks_.on_cycle_success(now, delay);
  if (stopped_) return;  // a callback stopped this CP

  timer_ = transport_.loop().timers().schedule_after(
      delay, [this] { begin_cycle(); });
}

void AsyncControlPointBase::declare_absent() {
  awaiting_reply_ = false;
  const double now = transport_.loop().now();
  const auto attempts = static_cast<std::uint8_t>(attempt_ + 1);

  device_present_.store(false, std::memory_order_relaxed);
  cycles_failed_.fetch_add(1, std::memory_order_relaxed);

  if (callbacks_.on_cycle) {
    CycleInfo info;
    info.success = false;
    info.start = cycle_start_;
    info.end = now;
    info.attempts = attempts;
    callbacks_.on_cycle(info);
  }
  if (callbacks_.on_cycle_trace) {
    trace_.end = now;
    trace_.attempts = attempts;
    trace_.success = false;
    trace_.rtt = 0.0;
    callbacks_.on_cycle_trace(trace_);
  }
  if (callbacks_.on_absent) callbacks_.on_absent(device_, now);
  // Monitoring ends here — no timer re-armed (the protocol's CP stops
  // probing an absent device; re-watch to resume).
}

AsyncSappControlPoint::AsyncSappControlPoint(AsyncUdpTransport& transport,
                                             net::NodeId device,
                                             core::SappCpConfig config,
                                             Callbacks callbacks)
    : AsyncControlPointBase(transport, device, config.timeouts,
                            std::move(callbacks)),
      config_(config),
      adaptation_(config_) {
  config_.validate();
}

double AsyncSappControlPoint::next_delay(const net::Message& reply,
                                         double t_obs) {
  return adaptation_.observe(reply.pc, t_obs);
}

AsyncDcppControlPoint::AsyncDcppControlPoint(AsyncUdpTransport& transport,
                                             net::NodeId device,
                                             core::DcppCpConfig config,
                                             Callbacks callbacks)
    : AsyncControlPointBase(transport, device, config.timeouts,
                            std::move(callbacks)),
      config_(config) {
  config_.validate();
}

double AsyncDcppControlPoint::next_delay(const net::Message& reply,
                                         double /*t_obs*/) {
  return reply.grant_delay < 0 ? 0.0 : reply.grant_delay;
}

}  // namespace probemon::runtime
