#include "core/control_point_base.hpp"

#include <algorithm>
#include <cmath>

#include "check/contract.hpp"
#include "util/logging.hpp"

namespace probemon::core {

ControlPointBase::ControlPointBase(des::Simulation& sim, net::Network& network,
                                   EntityArena& arena, net::NodeId device,
                                   const TimeoutConfig& timeouts,
                                   bool continue_after_absence,
                                   ProtocolObserver* observer)
    : sim_(sim),
      network_(network),
      arena_(arena),
      device_(device),
      continue_after_absence_(continue_after_absence),
      observer_(observer),
      cid_(arena.add_cp()),
      id_(network.attach(*this)),
      cycle_(timeouts),
      timer_(sim.scheduler(), [this] { on_timer(); }) {
  CpState& st = state();
  st.node = id_;
  st.device = device_;
}

ControlPointBase::~ControlPointBase() {
  stop();
  arena_.remove_cp(cid_);
}

void ControlPointBase::start(double initial_jitter) {
  CpState& st = state();
  if (st.running) return;
  st.running = true;
  if (initial_jitter > 0) {
    timer_.arm(initial_jitter);
  } else {
    begin_cycle();
  }
}

void ControlPointBase::stop() {
  if (!state().running && !network_.attached(id_)) return;
  state().running = false;
  cycle_.abort();
  timer_.disarm();
  if (network_.attached(id_)) network_.detach(id_);
}

void ControlPointBase::on_timer() {
  // An open cycle means the timer was its timeout; otherwise it was the
  // inter-cycle delay (or the start jitter).
  if (!cycle_.active()) {
    begin_cycle();
    return;
  }
  const ProbeCycle::Timeout timeout = cycle_.on_timeout(sim_.now());
  if (timeout.absent) {
    handle_failure();
  } else {
    transmit(timeout.send);
  }
}

void ControlPointBase::begin_cycle() { transmit(cycle_.start(sim_.now())); }

void ControlPointBase::transmit(const ProbeCycle::Send& send) {
  // Arm the timeout BEFORE handing the probe to the network: the send
  // path may deliver synchronously in unit tests with zero delay, and the
  // reply handler must find a consistent (armed) cycle to cancel.
  timer_.arm_at(send.deadline);
  net::Message probe;
  probe.kind = net::MessageKind::kProbe;
  probe.from = id_;
  probe.to = device_;
  probe.cycle = send.cycle;
  probe.attempt = send.attempt;
  network_.send(probe);
  if (observer_) {
    observer_->on_probe_sent(id_, device_, sim_.now(), send.attempt);
  }
}

void ControlPointBase::schedule_cycle(double delay) {
  PROBEMON_CONTRACT(std::isfinite(delay) && delay >= 0,
                    "inter-cycle delay must be finite and non-negative, got "
                        << delay);
  state().current_delay = delay;
  if (observer_) observer_->on_delay_updated(id_, sim_.now(), delay);
  timer_.arm(delay);
}

void ControlPointBase::handle_success(const net::Message& reply,
                                      const ProbeCycle::Verdict& verdict) {
  learn_overlay(reply);
  if (observer_) {
    observer_->on_cycle_success(id_, device_, sim_.now(), verdict.answered);
  }
  // A successful probe is evidence of presence: clear a stale verdict
  // (e.g. the device came back after a silent period).
  state().device_present = true;
  schedule_cycle(std::max(0.0, delay_after_success(reply, verdict.t_obs)));
}

void ControlPointBase::handle_failure() {
  if (!state().running) return;
  mark_absent(/*learned=*/false);
  if (continue_after_absence_) {
    schedule_cycle(std::max(0.0, delay_after_failure()));
  }
}

void ControlPointBase::mark_absent(bool learned) {
  CpState& st = state();
  const bool was_present = st.device_present;
  st.device_present = false;
  if (was_present) {
    st.absence_time = sim_.now();
    if (observer_) {
      if (learned) {
        observer_->on_absence_learned(id_, device_, sim_.now());
      } else {
        observer_->on_device_declared_absent(id_, device_, sim_.now());
      }
    }
    if (st.dissemination_ttl > 0 && !st.notified_peers) {
      st.notified_peers = true;
      disseminate(device_, st.dissemination_ttl);
    }
  }
}

void ControlPointBase::disseminate(net::NodeId subject, std::uint8_t ttl) {
  if (ttl == 0) return;
  for (net::NodeId peer : overlay_neighbors()) {
    net::Message notify;
    notify.kind = net::MessageKind::kNotify;
    notify.from = id_;
    notify.to = peer;
    notify.subject = subject;
    notify.ttl = static_cast<std::uint8_t>(ttl - 1);
    network_.send(notify);
  }
}

void ControlPointBase::learn_overlay(const net::Message& reply) {
  CpState& st = state();
  for (net::NodeId peer : reply.last_probers) {
    if (peer == net::kInvalidNode || peer == id_) continue;
    const auto end = st.overlay.begin() + st.overlay_count;
    if (std::find(st.overlay.begin(), end, peer) != end) continue;
    // Keep the overlay small and fresh: most recent four neighbours
    // (evict the oldest when full).
    if (st.overlay_count == st.overlay.size()) {
      std::copy(st.overlay.begin() + 1, st.overlay.end(),
                st.overlay.begin());
      st.overlay.back() = peer;
    } else {
      st.overlay[st.overlay_count++] = peer;
    }
  }
}

void ControlPointBase::on_message(const net::Message& msg) {
  switch (msg.kind) {
    case net::MessageKind::kReply:
      if (msg.from == device_ && state().running) {
        const ProbeCycle::Verdict verdict = cycle_.offer_reply(msg, sim_.now());
        if (verdict.accepted) {
          timer_.disarm();
          handle_success(msg, verdict);
        } else {
          on_stale_reply(msg, verdict.t_obs);
        }
      }
      break;
    case net::MessageKind::kBye:
      if (msg.from == device_ || msg.subject == device_) {
        cycle_.abort();
        timer_.disarm();
        mark_absent(/*learned=*/true);
      }
      break;
    case net::MessageKind::kNotify: {
      if (msg.subject == device_ && state().device_present) {
        cycle_.abort();
        timer_.disarm();
        mark_absent(/*learned=*/true);
        // mark_absent already gossiped if enabled, but honour the
        // incoming TTL when it is smaller than ours.
        CpState& st = state();
        if (st.dissemination_ttl > 0 && msg.ttl > 0 && !st.notified_peers) {
          st.notified_peers = true;
          disseminate(msg.subject, msg.ttl);
        }
      }
      break;
    }
    case net::MessageKind::kProbe:
      break;  // CPs are never probed
  }
}

}  // namespace probemon::core
