#include "telemetry/observer_adapter.hpp"

namespace probemon::telemetry {

namespace {
// Inter-cycle delays span delta_min=0.02 s to delta_max=10 s (paper
// defaults); exponential buckets cover the whole band.
std::vector<double> delay_buckets() {
  return Histogram::exponential_buckets(0.02, 2.0, 10);  // 0.02 .. 10.24
}
}  // namespace

ObserverAdapter::ObserverAdapter(Registry& registry, const Labels& labels)
    : probes_sent_(registry.counter("probemon_sim_probes_sent_total",
                                    "Probes transmitted by simulated CPs",
                                    labels)),
      retransmissions_(
          registry.counter("probemon_sim_retransmissions_total",
                           "Probe retransmissions (attempt > 0)", labels)),
      probes_received_(
          registry.counter("probemon_sim_probes_received_total",
                           "Probes accepted by simulated devices", labels)),
      cycles_succeeded_(
          registry.counter("probemon_sim_cycles_succeeded_total",
                           "Probe cycles completed by a reply", labels)),
      absences_declared_(registry.counter(
          "probemon_sim_absences_declared_total",
          "Devices declared absent after exhausted retransmissions", labels)),
      absences_learned_(registry.counter(
          "probemon_sim_absences_learned_total",
          "Absences learned via gossip dissemination", labels)),
      delta_changes_(registry.counter(
          "probemon_sim_delta_changes_total",
          "SAPP device Delta adaptations (overload control)", labels)),
      delay_(registry.histogram("probemon_sim_cycle_delay_seconds",
                                delay_buckets(),
                                "Inter-probe-cycle delays chosen by CPs",
                                labels)),
      // Same name + buckets as AsyncPresenceService's runtime
      // histogram, so the default alert ruleset works over either
      // registry.
      detection_latency_(registry.histogram(
          "probemon_detection_latency_seconds",
          Histogram::exponential_buckets(0.01, 2.0, 11),
          "First unanswered probe to absence declaration", labels)) {}

void ObserverAdapter::on_probe_sent(net::NodeId, net::NodeId, double,
                                    std::uint8_t attempt) {
  probes_sent_.inc();
  if (attempt > 0) retransmissions_.inc();
}

void ObserverAdapter::on_probe_received(net::NodeId, net::NodeId, double) {
  probes_received_.inc();
}

void ObserverAdapter::on_cycle_success(net::NodeId, net::NodeId, double,
                                       std::uint8_t) {
  cycles_succeeded_.inc();
}

void ObserverAdapter::on_delay_updated(net::NodeId, double, double delay) {
  delay_.observe(delay);
}

void ObserverAdapter::on_device_declared_absent(net::NodeId, net::NodeId,
                                                double t) {
  absences_declared_.inc();
  // With a known departure instant, declarations after it measure true
  // departure-to-detection latency; declarations before it (false
  // alarms) and runs without a departure record nothing here.
  if (departure_time_ >= 0.0 && t >= departure_time_) {
    detection_latency_.observe(t - departure_time_);
  }
}

void ObserverAdapter::on_absence_learned(net::NodeId, net::NodeId, double) {
  absences_learned_.inc();
}

void ObserverAdapter::on_delta_changed(net::NodeId, double, std::uint64_t) {
  delta_changes_.inc();
}

void CycleTraceObserver::on_probe_sent(net::NodeId cp, net::NodeId device,
                                       double t, std::uint8_t attempt) {
  if (attempt == 0) {
    ProbeCycleTrace trace;
    trace.cp = cp;
    trace.device = device;
    trace.cycle = ++next_cycle_[cp];
    trace.start = t;
    trace.sends.push_back(t);
    trace.attempts = 1;
    open_[cp] = std::move(trace);
    return;
  }
  auto it = open_.find(cp);
  if (it == open_.end()) return;  // observer attached mid-cycle
  it->second.sends.push_back(t);
  it->second.attempts = static_cast<std::uint8_t>(it->second.sends.size());
}

void CycleTraceObserver::on_cycle_success(net::NodeId cp, net::NodeId,
                                          double t, std::uint8_t attempts) {
  auto it = open_.find(cp);
  if (it == open_.end()) return;
  ProbeCycleTrace trace = std::move(it->second);
  open_.erase(it);
  trace.end = t;
  trace.success = true;
  if (attempts) trace.attempts = attempts;
  if (!trace.sends.empty()) trace.rtt = t - trace.sends.back();
  tracer_.record(trace);
}

void CycleTraceObserver::on_device_declared_absent(net::NodeId cp,
                                                   net::NodeId, double t) {
  auto it = open_.find(cp);
  if (it == open_.end()) return;
  ProbeCycleTrace trace = std::move(it->second);
  open_.erase(it);
  trace.end = t;
  trace.success = false;
  trace.rtt = 0.0;
  tracer_.record(trace);
}

}  // namespace probemon::telemetry
