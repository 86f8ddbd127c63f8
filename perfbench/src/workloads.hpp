// The three workloads and the shared shape of what they report.
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

Result run_des_fleet(const Options& opt);
Result run_des_paper(const Options& opt);
Result run_rt_fleet(const Options& opt);

/// The gated end-to-end metrics, identical in name and unit on every
/// workload.
void set_end_to_end(Result& r, double cycles_per_s, double cpu_us_per_cycle,
                    double detect_p50_ms, double detect_p99_ms, double setup_s);

/// Probe reply latency: virtual on the DES workloads, wall (from each
/// canary probe's due instant) on rt_fleet.
struct Reply {
  double p50_ms = 0, p90_ms = 0, p99_ms = 0;
};

/// Prints the reply latencies as a note; they are reported, not gated.
void note_reply(Result& r, const Reply& reply, const char* clock);

/// Every per-layer metric. A workload fills what it exercises; every
/// figure of a layer it does not exercise stays 0.
struct LayerMetrics {
  double events_per_cycle = 0, ns_per_event = 0, cancel_per_schedule = 0;
  double messages_per_cycle = 0, ns_per_message = 0, peak_in_flight = 0, drops = 0;
  double probes_per_cycle = 0, ns_per_step = 0, bytes_per_entity = 0;
  double audit_share = 0, violations = 0;
  double setup_ms_per_world = 0, merge_ms = 0;
  double ns_per_observe = 0, scrape_ms = 0;
  double busy_share = 0, cycles_per_wakeup = 0, lag_p50_ms = 0, lag_p99_ms = 0;
  double datagrams_per_cycle = 0, datagrams_per_wakeup = 0, udp_errors = 0;
  double sys_us_per_cycle = 0, user_us_per_cycle = 0, codec_ns_per_msg = 0;
  double ns_per_arm_cancel = 0;
  Reply reply;
  double trace_overhead_share = 0;
};

/// Sets every per-layer metric and the cost table on `r`.
void publish_layers(Result& r, const LayerMetrics& lm, const CostTable& table,
                    const std::string& workload);

}  // namespace perfbench
