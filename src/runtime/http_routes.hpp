// Observability HTTP routes over a running probe runtime.
//
// telemetry::HttpServer knows how to serve a Registry and a
// ProbeCycleTracer; this header adds the runtime-level routes —
// `/watches` (the AsyncPresenceService presence table) and `/healthz`
// (liveness plus registry/tracer/service stats) — and bundles the whole
// set behind one call, so an example or embedding application does:
//
//   telemetry::HttpServer server({.port = http_port});
//   runtime::register_observability_routes(
//       server, {.registry = &registry, .tracer = &tracer,
//                .async_service = &service});
//   server.start();
//
// Routes (all GET, Connection: close):
//   /          route index (text)
//   /metrics   Prometheus text exposition 0.0.4
//   /metrics.json  JSON snapshot of the registry
//   /healthz   liveness JSON
//   /watches   presence table JSON (from snapshotWatches())
//   /trace     probe-cycle ring: JSON, or ?format=chrome for Perfetto
//   /query     one history query: ?expr=rate(name[30])&range=60
//   /alerts    alert engine state JSON, ?state=firing to filter
#pragma once

#include "runtime/event_loop/async_presence.hpp"
#include "telemetry/alerts/alert_engine.hpp"
#include "telemetry/history/history.hpp"
#include "telemetry/http_server.hpp"

namespace probemon::runtime {

/// Pointers may be null: routes whose source is missing are simply not
/// registered (a /healthz with partial stats is always registered).
/// Everything referenced must outlive the server.
struct ObservabilitySources {
  /// Any MetricStore (Registry or ShardedRegistry).
  const telemetry::MetricStore* registry = nullptr;
  const telemetry::ProbeCycleTracer* tracer = nullptr;
  const AsyncPresenceService* async_service = nullptr;
  const check::InvariantAuditor* auditor = nullptr;
  const telemetry::TimeSeriesHistory* history = nullptr;
  const telemetry::AlertEngine* alerts = nullptr;
};

/// `/watches`: one JSON object per watch — device id, presence state,
/// last transition instant, last RTT, consecutive failures, probe/cycle
/// tallies and the next probe's due time.
void register_watch_routes(telemetry::HttpServer& server,
                           const AsyncPresenceService& service);

/// `/healthz`: {"status":"ok", uptime, requests served, and per-source
/// stats for whichever of registry/tracer/service are wired}.
void register_healthz_route(telemetry::HttpServer& server,
                            ObservabilitySources sources);

/// `/query?expr=E[&range=N]`: evaluate one expression (grammar in
/// telemetry/history/query.hpp) against the sampled history; responds
/// {"expr":E,"fn":...,"range":N,"as_of":T,"value":V} with null for
/// insufficient data, 400 + JSON error on a malformed expr/range.
void register_query_routes(telemetry::HttpServer& server,
                           const telemetry::TimeSeriesHistory& history);

/// `/alerts[?state=firing|pending|resolved|inactive]`: the alert
/// engine's deterministic JSON snapshot (alerts_to_json).
void register_alert_routes(telemetry::HttpServer& server,
                           const telemetry::AlertEngine& alerts);

/// The full route set ("/", /metrics, /metrics.json, /healthz,
/// /watches, /trace, /query, /alerts) for whichever sources are
/// non-null.
void register_observability_routes(telemetry::HttpServer& server,
                                   ObservabilitySources sources);

/// JSON rendering of snapshotWatches() (exposed for tests and for
/// non-HTTP dumps).
std::string watches_to_json(const AsyncPresenceService& service);

}  // namespace probemon::runtime
