#include "runtime/event_loop/async_control_point.hpp"

#include <stdexcept>

namespace probemon::runtime {
namespace {

/// The reactor's control points end monitoring on absence by design, so
/// a config asking to keep probing is refused rather than ignored.
template <typename Config>
const Config& reactor_config(const Config& config) {
  config.validate();
  if (config.continue_after_absence) {
    throw std::invalid_argument(
        "AsyncControlPoint: continue_after_absence is not supported "
        "(monitoring stops on absence; re-watch to resume)");
  }
  return config;
}

}  // namespace

AsyncControlPointBase::AsyncControlPointBase(
    AsyncUdpTransport& transport, net::NodeId device,
    const core::TimeoutConfig& timeouts, Callbacks callbacks)
    : transport_(transport),
      device_(device),
      callbacks_(std::move(callbacks)),
      cycle_(timeouts) {
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
  cycle_.abort();
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
  transmit(cycle_.start(transport_.loop().now()));
}

void AsyncControlPointBase::transmit(const core::ProbeCycle::Send& send) {
  probes_sent_.fetch_add(1, std::memory_order_relaxed);
  if (callbacks_.on_cycle_trace) {
    if (send.attempt == 0) {
      trace_.cp = id_;
      trace_.device = device_;
      trace_.cycle = send.cycle;
      trace_.start = cycle_.cycle_start_time();
      trace_.sends.clear();
    }
    trace_.sends.push_back(cycle_.last_send_time());
  }
  timer_ = transport_.loop().timers().schedule_at(send.deadline,
                                                  [this] { on_timeout(); });
  net::Message probe;
  probe.kind = net::MessageKind::kProbe;
  probe.from = id_;
  probe.to = device_;
  probe.cycle = send.cycle;
  probe.attempt = send.attempt;
  transport_.send(probe);
}

void AsyncControlPointBase::on_timeout() {
  timer_ = des::EventId{};
  if (!cycle_.active()) return;
  const double now = transport_.loop().now();
  const core::ProbeCycle::Timeout timeout = cycle_.on_timeout(now);
  if (!timeout.absent) {
    transmit(timeout.send);
    return;
  }
  device_present_.store(false, std::memory_order_relaxed);
  cycles_failed_.fetch_add(1, std::memory_order_relaxed);
  CycleInfo info;
  info.start = cycle_.cycle_start_time();
  info.end = now;
  info.attempts = static_cast<std::uint8_t>(cycle_.attempt() + 1);
  report(info);
  // Monitoring ends here — no timer re-armed (the protocol's CP stops
  // probing an absent device; re-watch to resume).
}

void AsyncControlPointBase::handle(const net::Message& msg) {
  if (msg.kind != net::MessageKind::kReply || msg.from != device_) return;
  if (!started_ || stopped_) return;
  const double now = transport_.loop().now();
  const core::ProbeCycle::Verdict verdict = cycle_.offer_reply(msg, now);
  if (!verdict.accepted) {
    on_stale_reply(msg, verdict.t_obs);
    return;
  }
  disarm();
  const double delay = next_delay(msg, verdict.t_obs);
  current_delay_.store(delay, std::memory_order_relaxed);
  device_present_.store(true, std::memory_order_relaxed);
  cycles_succeeded_.fetch_add(1, std::memory_order_relaxed);

  CycleInfo info;
  info.success = true;
  info.start = cycle_.cycle_start_time();
  info.end = now;
  info.rtt = verdict.rtt;
  info.next_delay = delay;
  info.attempts = verdict.sent;
  report(info);
  if (stopped_) return;  // a callback stopped this CP

  timer_ = transport_.loop().timers().schedule_after(
      delay, [this] { begin_cycle(); });
}

void AsyncControlPointBase::report(const CycleInfo& info) {
  if (callbacks_.on_cycle) callbacks_.on_cycle(info);
  if (callbacks_.on_cycle_trace) {
    trace_.end = info.end;
    trace_.attempts = info.attempts;
    trace_.success = info.success;
    trace_.rtt = info.rtt;
    callbacks_.on_cycle_trace(trace_);
  }
}

AsyncSappControlPoint::AsyncSappControlPoint(AsyncUdpTransport& transport,
                                             net::NodeId device,
                                             core::SappCpConfig config,
                                             Callbacks callbacks)
    : AsyncControlPointBase(transport, device,
                            reactor_config(config).timeouts,
                            std::move(callbacks)),
      config_(config),
      adaptation_(config_),
      delta_(adaptation_.delta()) {}

double AsyncSappControlPoint::observe(const net::Message& reply,
                                      double t_obs) {
  const double delta = adaptation_.observe(reply.pc, t_obs);
  delta_.store(delta, std::memory_order_relaxed);
  return delta;
}

double AsyncSappControlPoint::next_delay(const net::Message& reply,
                                         double t_obs) {
  return observe(reply, t_obs);
}

void AsyncSappControlPoint::on_stale_reply(const net::Message& reply,
                                           double t_obs) {
  // Same rule as the DES SappControlPoint: duplicates are load
  // observations too; the new delta takes effect after the next cycle.
  if (config_.use_every_reply) observe(reply, t_obs);
}

AsyncDcppControlPoint::AsyncDcppControlPoint(AsyncUdpTransport& transport,
                                             net::NodeId device,
                                             core::DcppCpConfig config,
                                             Callbacks callbacks)
    : AsyncControlPointBase(transport, device,
                            reactor_config(config).timeouts,
                            std::move(callbacks)) {}

double AsyncDcppControlPoint::next_delay(const net::Message& reply,
                                         double /*t_obs*/) {
  return reply.grant_delay < 0 ? 0.0 : reply.grant_delay;
}

}  // namespace probemon::runtime
