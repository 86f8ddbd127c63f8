// Presence dashboard — the AsyncPresenceService facade watching a fleet
// of devices on the event-loop runtime: some devices crash, the event
// stream announces it, and the table is rendered straight from
// AsyncPresenceService::snapshotWatches() — the same accessor the
// /watches HTTP route serves (pass --http-port to scrape it live with
// curl). Wall-clock runtime: about 2 seconds plus --linger.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/event_loop/async_device.hpp"
#include "runtime/event_loop/async_presence.hpp"
#include "runtime/event_loop/async_udp.hpp"
#include "runtime/event_loop/event_loop.hpp"
#include "runtime/history_ticker.hpp"
#include "runtime/http_routes.hpp"
#include "telemetry/alerts/default_rules.hpp"
#include "telemetry/http_server.hpp"
#include "telemetry/probe_tracer.hpp"
#include "telemetry/registry.hpp"
#include "trace/table.hpp"
#include "util/cli.hpp"

using namespace probemon;
using namespace std::chrono_literals;

namespace {

std::string fmt(double v, const char* unit = "") {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.4g%s", v, unit);
  return buf;
}

/// The dashboard's table, straight from the service's snapshot — no
/// state duplicated through observer callbacks.
void print_watch_table(const runtime::AsyncPresenceService& service) {
  trace::Table table({"device", "presence", "last rtt", "fails", "probes",
                      "next probe due"});
  for (const auto& info : service.snapshotWatches()) {
    table.row()
        .cell(std::to_string(info.device))
        .cell(to_string(info.state))
        .cell(info.last_rtt > 0 ? fmt(info.last_rtt, " s") : "-")
        .cell(std::to_string(info.consecutive_failures))
        .cell(std::to_string(info.probes_sent))
        .cell(info.next_probe_due > 0 ? fmt(info.next_probe_due, " s") : "-");
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto http_port = cli.get<std::int64_t>("http-port", -1);
  const auto linger_s = cli.get<double>("linger", 0.0);
  cli.finish(
      "presence_dashboard: AsyncPresenceService watching a device fleet");

  runtime::EventLoop loop;
  runtime::AsyncUdpTransport transport(loop);

  // A fleet of six devices with quick DCPP schedules.
  core::DcppDeviceConfig device_config;
  device_config.delta_min = 0.02;
  device_config.d_min = 0.08;
  std::vector<std::unique_ptr<runtime::AsyncDcppDevice>> devices;
  for (int i = 0; i < 6; ++i) {
    devices.push_back(
        std::make_unique<runtime::AsyncDcppDevice>(transport, device_config));
  }

  telemetry::Registry registry;
  telemetry::ProbeCycleTracer tracer(1024);
  runtime::AsyncPresenceService::TelemetryOptions wiring;
  wiring.registry = &registry;
  wiring.tracer = &tracer;
  wiring.per_watch_metrics = true;  // six devices: cardinality is fine
  runtime::AsyncPresenceService service(transport, wiring);

  std::atomic<int> events{0};
  service.subscribe([&](const runtime::PresenceEvent& event) {
    ++events;
    std::cout << "  [t=" << event.t << "s] device " << event.device << " -> "
              << to_string(event.state) << '\n';
  });

  // Sampled history + the shipped budget rules behind /query + /alerts
  // (budget: d_min + TOF + 3*TOS < 0.3 s for this demo's schedules).
  telemetry::TimeSeriesHistory history(registry,
                                       {.sample_period_s = 0.1, .slots = 600});
  telemetry::DefaultRuleParams rule_params;
  rule_params.detection_latency_budget_s = 0.3;
  rule_params.detection_latency_window_s = 30.0;
  rule_params.false_alarm_window_s = 30.0;
  // The load budget (beta * L_nom) watched on one instrumented device.
  devices.front()->instrument(registry);
  rule_params.load_labels = {
      {"device", std::to_string(devices.front()->id())}};
  rule_params.load_l_nom = device_config.l_nom();
  for (const auto& [series, labels] : default_rule_series(rule_params)) {
    history.track(series, labels);
  }
  telemetry::AlertEngine alerts(&history);
  for (const auto& rule : default_presence_rules(rule_params)) {
    alerts.add_rule(rule);
  }
  alerts.bind_registry(registry);
  runtime::HistoryTicker ticker(history, &alerts, 0.1);
  ticker.start();

  telemetry::HttpServer http(
      {.port = static_cast<std::uint16_t>(http_port > 0 ? http_port : 0)});
  if (http_port >= 0) {
    runtime::ObservabilitySources sources;
    sources.registry = &registry;
    sources.tracer = &tracer;
    sources.async_service = &service;
    sources.history = &history;
    sources.alerts = &alerts;
    runtime::register_observability_routes(http, sources);
    http.start();
    std::cout << "dashboard also at http://127.0.0.1:" << http.port()
              << "/watches (and /alerts, /query)\n";
  }

  core::DcppCpConfig cp_config;
  cp_config.timeouts.tof = 0.030;
  cp_config.timeouts.tos = 0.020;
  for (const auto& device : devices) {
    service.watch_dcpp(device->id(), cp_config);
  }
  loop.start();
  std::cout << "watching " << service.watch_count() << " devices...\n";
  std::this_thread::sleep_for(400ms);

  std::cout << "\ndevices 2 and 5 crash silently...\n";
  devices[1]->go_silent();
  devices[4]->go_silent();
  std::this_thread::sleep_for(600ms);

  print_watch_table(service);

  const auto stats = service.stats();
  std::cout << "\nservice totals: " << stats.probes_sent << " probes, "
            << stats.cycles_succeeded << " successful cycles, "
            << stats.cycles_failed << " failed cycles, " << events
            << " presence events\n";

  std::size_t absent = 0;
  for (const auto& info : service.snapshotWatches()) {
    if (info.state == runtime::Presence::kAbsent) ++absent;
  }
  std::cout << (absent == 2 ? "dashboard agrees with reality."
                            : "UNEXPECTED presence table!")
            << '\n';

  if (http_port >= 0 && linger_s > 0) {
    std::cout << "serving for " << linger_s << " more seconds...\n";
    std::this_thread::sleep_for(std::chrono::duration<double>(linger_s));
  }
  http.stop();
  // Async devices/transport tear down loop-confined: stop the loop
  // first.
  loop.stop();
  return absent == 2 ? 0 : 1;
}
