// des_fleet: single-threaded simulations of ~1e5 entities in groups of
// 1 device + 4 control points, half SAPP and half DCPP, over the paper's
// three-mode delay with 1% Bernoulli loss; a seeded tenth of the devices
// goes silent early in each epoch's measured window.
//
// Why: the pending-event set and entity state far exceed the L2 cache,
// so scheduler, arena and network memory layout dominate. No auditor,
// sweep or telemetry runs here.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/probemon.hpp"
#include "layers.hpp"
#include "net/delay_model.hpp"
#include "net/loss_model.hpp"
#include "probe_observer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace probemon;

namespace {

constexpr std::size_t kCpsPerDevice = 4;
constexpr double kLoss = 0.01;
constexpr double kDepartShare = 0.10;
constexpr double kWarmup = 1.0;        // virtual s before the epoch window
constexpr double kEpochWindow = 2.0;   // virtual s measured per epoch
constexpr double kCheckpoint = 0.5;    // virtual s into the window

/// One epoch's world: a fresh fleet with its own seed, so a run's
/// median spans several heap layouts as well as several worlds.
struct FleetSpec {
  std::uint64_t sim_seed = 0;
  std::size_t groups = 0;
  std::vector<double> jitter;  ///< per CP start offset
  std::vector<std::pair<std::size_t, double>> departures;  ///< (group, t)
};

FleetSpec make_spec(std::uint64_t seed, int epoch, const Options& opt) {
  InputRng rng(seed * 0x2545f4914f6cdd1dULL + static_cast<std::uint64_t>(epoch) * 0x100000001b3ULL +
               0xf1ee7);
  FleetSpec spec;
  spec.sim_seed = rng.next();
  spec.groups = opt.tiny ? 400 : 20'000;
  spec.jitter.resize(spec.groups * kCpsPerDevice);
  for (auto& j : spec.jitter) j = rng.unit();
  // Departures early in the window leave time for every CP to detect.
  for (std::size_t g = 0; g < spec.groups; ++g) {
    if (rng.unit() < kDepartShare) {
      spec.departures.emplace_back(g, kWarmup + rng.uniform(0.0, 0.3 * kEpochWindow));
    }
  }
  return spec;
}

int epochs(const Options& opt) { return opt.tiny ? 2 : std::max(3, opt.seconds * 4 / 5); }

/// One built fleet. Members are declared so entities die before the
/// network, arena and simulation they are attached to.
struct FleetWorld {
  des::Simulation sim;
  net::Network network;
  core::EntityArena arena;
  BinnedSamples rtt = ProbeObserver::make_rtt_bins();
  ProbeObserver obs{rtt};
  std::vector<std::unique_ptr<core::DeviceBase>> devices;
  std::vector<std::unique_ptr<core::ControlPointBase>> cps;

  static net::NetworkConfig network_config(std::size_t entities) {
    net::NetworkConfig c;
    c.buffer_capacity = std::max<std::size_t>(20'000, entities);
    return c;
  }

  explicit FleetWorld(const FleetSpec& spec)
      : sim(spec.sim_seed),
        network(sim.scheduler(), sim.rng(),
                network_config(spec.groups * (kCpsPerDevice + 1)),
                net::make_three_mode_delay(), net::make_bernoulli_loss(kLoss)) {
    core::SappCpConfig sapp_cp;
    sapp_cp.initial_delay = 1.0;  // fleet start, as bench_scale
    const core::SappDeviceConfig sapp_dev;
    const core::DcppDeviceConfig dcpp_dev;
    const core::DcppCpConfig dcpp_cp;
    devices.reserve(spec.groups);
    cps.reserve(spec.groups * kCpsPerDevice);
    for (std::size_t g = 0; g < spec.groups; ++g) {
      const bool sapp = g % 2 == 0;
      if (sapp) {
        devices.push_back(std::make_unique<core::SappDevice>(sim, network, arena, sapp_dev, &obs));
      } else {
        devices.push_back(std::make_unique<core::DcppDevice>(sim, network, arena, dcpp_dev, &obs));
      }
      const net::NodeId dev = devices.back()->id();
      for (std::size_t c = 0; c < kCpsPerDevice; ++c) {
        if (sapp) {
          cps.push_back(std::make_unique<core::SappControlPoint>(sim, network, arena, dev,
                                                                 sapp_cp, &obs));
        } else {
          cps.push_back(std::make_unique<core::DcppControlPoint>(sim, network, arena, dev,
                                                                 dcpp_cp, &obs));
        }
        cps.back()->start(spec.jitter[g * kCpsPerDevice + c]);
      }
    }
    for (const auto& [g, t] : spec.departures) {
      sim.at(t, [this, g = g] {
        devices[g]->go_silent();
        obs.departed(devices[g]->id(), sim.now());
      });
    }
  }
};

Fingerprint fingerprint(const FleetWorld& w) {
  return {w.sim.scheduler().executed_count(), w.network.counters().delivered,
          w.obs.detect_s.size(), w.obs.cycles(), w.obs.false_absences};
}

Fingerprint run_to_checkpoint(const FleetSpec& spec) {
  Tracer::Span span("des_fleet.check_world");
  FleetWorld w(spec);
  w.sim.run_until(kWarmup + kCheckpoint);
  return fingerprint(w);
}

struct FleetMeasure {
  double setup_s = 0;
  double bytes_per_entity = 0;
  std::vector<double> epoch_rate, epoch_cpu_us;
  Usage usage;  ///< summed over the epoch windows
  std::uint64_t cycles = 0, probes = 0, cycles_ok = 0, events = 0, sent = 0, drops = 0;
  double pending_mean = 0, peak_in_flight = 0;
  std::uint64_t attempted = 0, failed = 0;
  BinnedSamples detect = ProbeObserver::make_detect_bins();
  BinnedSamples rtt = ProbeObserver::make_rtt_bins();
  Reply reply() const {
    return {1e3 * rtt.quantile(0.50), 1e3 * rtt.quantile(0.90), 1e3 * rtt.quantile(0.99)};
  }
};

FleetMeasure measure(const Options& opt, Result& r) {
  // One CPU for the whole measurement: no migrations mid-epoch.
  const PinGuard pin(0);
  FleetMeasure m;
  std::vector<double> builds;
  std::vector<Fingerprint> at_checkpoint;
  double pending_sum = 0;
  const int n = epochs(opt);
  for (int e = 0; e < n; ++e) {
    const FleetSpec spec = make_spec(opt.seed, e, opt);
    // Set-up: the epoch's world is built three times (the last one
    // runs), so set-up is the median of many ~20 ms builds spread over
    // the whole run, each timed by this thread's CPU clock.
    std::unique_ptr<FleetWorld> world;
    for (int b = 0; b < 3; ++b) {
      world.reset();
      const std::uint64_t rss0 = current_rss_bytes();
      const double b0 = thread_cpu_s();
      {
        Tracer::Span span("des_fleet.build");
        world = std::make_unique<FleetWorld>(spec);
      }
      builds.push_back(thread_cpu_s() - b0);
      if (e == 0 && b == 0) {
        m.bytes_per_entity = static_cast<double>(current_rss_bytes() - rss0) /
                             static_cast<double>(spec.groups * (kCpsPerDevice + 1));
      }
    }
    FleetWorld& w = *world;
    {
      Tracer::Span span("des_fleet.run_until");
      w.sim.run_until(kWarmup);  // first cycles of every CP
    }
    const auto& nc = w.network.counters();
    const Usage u0 = Usage::now();
    const double w0 = now_s();
    const std::uint64_t cycles0 = w.obs.cycles(), probes0 = w.obs.probes,
                        ok0 = w.obs.cycles_ok, events0 = w.sim.scheduler().executed_count(),
                        sent0 = nc.sent,
                        drops0 = nc.dropped_loss + nc.dropped_overflow + nc.dropped_unknown;
    {
      Tracer::Span span("des_fleet.run_until");
      w.sim.run_until(kWarmup + kCheckpoint);
    }
    if (e < 2) at_checkpoint.push_back(fingerprint(w));
    pending_sum += static_cast<double>(w.sim.scheduler().pending_count());
    {
      Tracer::Span span("des_fleet.run_until");
      w.sim.run_until(kWarmup + kEpochWindow);
    }
    const double wall = now_s() - w0;
    const Usage used = Usage::now() - u0;
    const std::uint64_t cycles = w.obs.cycles() - cycles0;
    m.epoch_rate.push_back(static_cast<double>(cycles) / wall);
    m.epoch_cpu_us.push_back(1e6 * used.cpu_s() / static_cast<double>(cycles));
    m.usage.user_s += used.user_s;
    m.usage.sys_s += used.sys_s;
    m.cycles += cycles;
    m.probes += w.obs.probes - probes0;
    m.cycles_ok += w.obs.cycles_ok - ok0;
    m.events += w.sim.scheduler().executed_count() - events0;
    m.sent += nc.sent - sent0;
    m.drops += nc.dropped_loss + nc.dropped_overflow + nc.dropped_unknown - drops0;
    m.peak_in_flight = std::max(m.peak_in_flight, w.network.max_buffer_occupancy());
    // Every control point of every departed device must declare it
    // absent. A SAPP CP on a long delay may finish after the window:
    // run on, unmeasured, until the last one has (at most 12 virtual s).
    auto undetected = [&] {
      std::size_t left = 0;
      for (const auto& [g, t] : spec.departures) {
        for (std::size_t c = 0; c < kCpsPerDevice; ++c) {
          left += w.cps[g * kCpsPerDevice + c]->device_considered_present() ? 1 : 0;
        }
      }
      return left;
    };
    for (int step = 0; step < 48 && undetected() > 0; ++step) {
      Tracer::Span span("des_fleet.run_until");
      w.sim.run_until(w.sim.now() + 0.25);
    }
    check(undetected() == 0, "des_fleet: a departed device was never declared absent");
    m.attempted += w.obs.cycles();
    m.failed += w.obs.false_absences;
    for (double d : w.obs.detect_s) m.detect.add(d);
    m.rtt.merge(w.rtt);
    check(!spec.departures.empty() && !w.obs.detect_s.empty(), "des_fleet: no detections");
  }
  builds.erase(builds.begin());  // the first build also faults in fresh pages
  m.setup_s = median(builds);
  m.pending_mean = pending_sum / n;

  // Determinism: epoch 0 repeats exactly from its seed; epoch 1, built
  // from another seed, differs.
  const Fingerprint again = run_to_checkpoint(make_spec(opt.seed, 0, opt));
  check(again == at_checkpoint[0], "des_fleet: seed " + std::to_string(opt.seed) +
                                       " did not repeat: " + at_checkpoint[0].str() + " vs " +
                                       again.str());
  check(!(at_checkpoint[1] == at_checkpoint[0]), "des_fleet: another seed gave the same counts");
  r.notes.push_back("des_fleet determinism: epoch 0 " + at_checkpoint[0].str() +
                    " (repeated), epoch 1 " + at_checkpoint[1].str());
  return m;
}

}  // namespace

Result run_des_fleet(const Options& opt) {
  Result r;
  const FleetMeasure m = measure(opt, r);
  r.attempted = m.attempted;
  r.failed = m.failed;
  set_end_to_end(r, median(m.epoch_rate), median(m.epoch_cpu_us),
                 1e3 * m.detect.quantile(0.50), 1e3 * m.detect.quantile(0.99), m.setup_s);
  note_reply(r, m.reply(), "virtual");
  r.notes.push_back("des_fleet: " + std::to_string(m.detect.count()) + " detections, " +
                    std::to_string(m.cycles) + " cycles in the epoch windows");
  r.notes.push_back("des_fleet epoch cycles/s: " + spread(m.epoch_rate));
  if (!opt.trace) return r;

  // Traced run: the same workload again with spans on, then the
  // isolated layer costs at this workload's shape.
  Tracer::enable(true);
  Result traced_notes;
  const FleetMeasure t = measure(opt, traced_notes);
  Tracer::enable(false);
  const auto self = Tracer::self_seconds();
  Tracer::write_chrome(".bench_runs/des_fleet-trace.json");
  const double cycles = static_cast<double>(t.cycles);
  const double cpu_us = median(t.epoch_cpu_us);

  LayerMetrics lm;
  lm.events_per_cycle = static_cast<double>(t.events) / cycles;
  // Little's law: mean residence = pending / event rate (virtual).
  const double events_per_virtual_s =
      static_cast<double>(t.events) / (kEpochWindow * epochs(opt));
  lm.ns_per_event = des_ns_per_event(static_cast<std::size_t>(t.pending_mean),
                                     2.0 * t.pending_mean / events_per_virtual_s);
  lm.cancel_per_schedule =
      static_cast<double>(t.cycles_ok) / static_cast<double>(t.events + t.cycles_ok);
  lm.messages_per_cycle = static_cast<double>(t.sent) / cycles;
  double net_des_ns = 0;
  lm.ns_per_message =
      net_ns_per_message(static_cast<std::size_t>(std::max(1.0, t.peak_in_flight)), kLoss,
                         net_des_ns);
  lm.peak_in_flight = t.peak_in_flight;
  lm.drops = static_cast<double>(t.drops);
  lm.probes_per_cycle = static_cast<double>(t.probes) / cycles;
  lm.ns_per_step = 0.5 * (core_ns_per_dcpp_grant() + core_ns_per_sapp_step());
  // Only the first pass in a process sees fresh pages.
  lm.bytes_per_entity = m.bytes_per_entity;
  lm.reply = t.reply();
  lm.setup_ms_per_world = 1e3 * t.setup_s;
  lm.sys_us_per_cycle = 1e6 * t.usage.sys_s / cycles;
  lm.user_us_per_cycle = 1e6 * t.usage.user_s / cycles;

  CostTable table;
  table.total_us = cpu_us;
  table.set("des", lm.events_per_cycle * lm.ns_per_event * 1e-3);
  table.set("net", lm.messages_per_cycle * (lm.ns_per_message - net_des_ns) * 1e-3);
  table.set("core", lm.ns_per_step * 1e-3);
  table.set("kernel", lm.sys_us_per_cycle);

  Result out;
  out.attempted = t.attempted;
  out.failed = t.failed;
  out.notes = r.notes;
  out.notes.push_back("span self time (s):");
  for (const auto& [name, s] : self) out.notes.push_back("  " + name + " " + std::to_string(s));
  lm.trace_overhead_share = cpu_us / r.get("cpu_us_per_cycle") - 1.0;
  publish_layers(out, lm, table, "des_fleet");
  return out;
}

}  // namespace perfbench
