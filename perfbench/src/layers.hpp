// Isolated per-layer cost measurements for traced runs. Each function
// drives one layer's public API alone, at a shape (population, spread)
// the calling workload passes in, and returns nanoseconds per
// operation. They feed the per-workload cost tables.
#pragma once

#include <cstddef>
#include <cstdint>

#include <vector>

namespace probemon::telemetry {
class MetricStore;
}
namespace probemon::runtime {
class EventLoop;
}

namespace perfbench {

/// The benchmark's own periodic timer on an EventLoop's wheel: records
/// fire time minus deadline (loop lag) on every expiry. Loop-confined
/// after start(); read `lags` only once the loop has stopped.
class LoopLagProbe {
 public:
  LoopLagProbe(probemon::runtime::EventLoop& loop, double period_s,
               std::vector<double>& lags);
  LoopLagProbe(const LoopLagProbe&) = delete;
  LoopLagProbe& operator=(const LoopLagProbe&) = delete;
  /// Arms the first expiry from the loop thread.
  void start();

 private:
  void arm();
  void fire();

  probemon::runtime::EventLoop& loop_;
  double period_;
  double deadline_ = 0;
  std::vector<double>& lags_;
};

/// des::Scheduler: one schedule + one dispatch per event, with `pending`
/// live events whose deadlines spread uniformly over `span_s`.
double des_ns_per_event(std::size_t pending, double span_s);

/// net::Network send -> deliver, paper three-mode delay and `loss`
/// Bernoulli loss, `in_flight` messages in the air. `des_part_ns`
/// receives the cost of the bare scheduler events that carry the same
/// message stream, so the network's self time is the difference.
double net_ns_per_message(std::size_t in_flight, double loss, double& des_part_ns);

/// core protocol step: DcppDevice::grant and SappAdaptation::observe.
double core_ns_per_dcpp_grant();
double core_ns_per_sapp_step();

/// telemetry::Histogram::observe on the reply-latency bucket layout.
double telemetry_ns_per_observe();

/// runtime udp_encode + udp_decode of one 48-byte datagram.
double codec_ns_per_msg();

/// des::WallClockTimerWheel arm + cancel with `pending` armed timers
/// spread over `span_s`.
double timers_ns_per_arm_cancel(std::size_t pending, double span_s);

/// Writes one replication summary into `store` with the metric families
/// the des_paper jobs use (shared so the merge measurement has the same
/// shape as the workload's per-worker registries).
void record_replication(probemon::telemetry::MetricStore& store, const char* world,
                        std::uint64_t cycles, std::uint64_t events,
                        const double* detect_s, std::size_t detect_n);

/// Registry::merge_from of `workers` per-worker stores each holding
/// `jobs_per_worker` replications of the des_paper shape, in ms.
double merge_ms(unsigned workers, std::size_t jobs_per_worker);

}  // namespace perfbench
