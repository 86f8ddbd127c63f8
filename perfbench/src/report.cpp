#include <cstddef>
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

void set_end_to_end(Result& r, double cycles_per_s, double cpu_us_per_cycle,
                    double detect_p50_ms, double detect_p99_ms, double setup_s) {
  r.set("cycles_per_s", cycles_per_s, "1/s");
  r.set("cpu_us_per_cycle", cpu_us_per_cycle, "us");
  r.set("detect_p50_ms", detect_p50_ms, "ms");
  r.set("detect_p99_ms", detect_p99_ms, "ms");
  r.set("setup_s", setup_s, "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
}

void note_reply(Result& r, const Reply& reply, const char* clock) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "reply_p50_ms %.6g ms, reply_p90_ms %.6g ms, reply_p99_ms %.6g ms (%s; not "
                "gated, see perfbench/README.md)",
                reply.p50_ms, reply.p90_ms, reply.p99_ms, clock);
  r.notes.push_back(buf);
}

void publish_layers(Result& r, const LayerMetrics& lm, const CostTable& table,
                    const std::string& workload) {
  r.set("des.events_per_cycle", lm.events_per_cycle, "ratio");
  r.set("des.ns_per_event", lm.ns_per_event, "ns");
  r.set("des.cancel_per_schedule", lm.cancel_per_schedule, "ratio");
  r.set("net.messages_per_cycle", lm.messages_per_cycle, "ratio");
  r.set("net.ns_per_message", lm.ns_per_message, "ns");
  r.set("net.peak_in_flight", lm.peak_in_flight, "count");
  r.set("net.drops", lm.drops, "count");
  r.set("core.probes_per_cycle", lm.probes_per_cycle, "ratio");
  r.set("core.ns_per_step", lm.ns_per_step, "ns");
  r.set("core.bytes_per_entity", lm.bytes_per_entity, "B");
  r.set("check.audit_share", lm.audit_share, "share");
  r.set("check.violations", lm.violations, "count");
  r.set("scenario.setup_ms_per_world", lm.setup_ms_per_world, "ms");
  r.set("scenario.merge_ms", lm.merge_ms, "ms");
  r.set("telemetry.ns_per_observe", lm.ns_per_observe, "ns");
  r.set("telemetry.scrape_ms", lm.scrape_ms, "ms");
  r.set("runtime.loop.busy_share", lm.busy_share, "share");
  r.set("runtime.loop.cycles_per_wakeup", lm.cycles_per_wakeup, "ratio");
  r.set("runtime.loop.lag_p50_ms", lm.lag_p50_ms, "ms");
  r.set("runtime.loop.lag_p99_ms", lm.lag_p99_ms, "ms");
  r.set("runtime.udp.datagrams_per_cycle", lm.datagrams_per_cycle, "ratio");
  r.set("runtime.udp.datagrams_per_wakeup", lm.datagrams_per_wakeup, "ratio");
  r.set("runtime.udp.errors", lm.udp_errors, "count");
  r.set("runtime.udp.sys_us_per_cycle", lm.sys_us_per_cycle, "us");
  r.set("runtime.udp.user_us_per_cycle", lm.user_us_per_cycle, "us");
  r.set("runtime.udp.codec_ns_per_msg", lm.codec_ns_per_msg, "ns");
  r.set("runtime.timers.ns_per_arm_cancel", lm.ns_per_arm_cancel, "ns");
  r.set("reply.p50_ms", lm.reply.p50_ms, "ms");
  r.set("reply.p90_ms", lm.reply.p90_ms, "ms");
  r.set("reply.p99_ms", lm.reply.p99_ms, "ms");
  table.publish(r, workload);
  r.set("trace_overhead_share", lm.trace_overhead_share, "share");
  r.notes.push_back("trace_overhead_share " + std::to_string(lm.trace_overhead_share) +
                    " (traced / untraced cpu_us_per_cycle - 1)");
}

}  // namespace perfbench
