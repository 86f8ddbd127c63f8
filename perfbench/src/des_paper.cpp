// des_paper: the paper's own worlds through scenario::Experiment with
// its default invariant auditor — 1 SAPP device with 3 CPs (Fig 2) and
// with 20 CPs (Fig 3), and DCPP under CP join/leave churn (Fig 5) —
// each ending in a silent device departure, replicated many times on a
// SweepRunner with 2 workers.
//
// Why: every world fits in cache, so per-event fixed costs dominate:
// callbacks, observer fan-out, auditor, Metrics, per-worker registries
// and their merge, and repeated world construction.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "probe_observer.hpp"
#include "scenario/churn.hpp"
#include "scenario/experiment.hpp"
#include "scenario/sweep.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace probemon;

namespace {

constexpr unsigned kWorkers = 2;
// 96 worlds per batch: both workers idle at the barrier after each batch
// until the coordinator wakes, which on a VM can take milliseconds; at 24
// worlds per batch that idled them 10-25% of the run, varying run to run.
constexpr int kTriplesPerBatch = 32;
// Rates are taken over windows of batches lasting ~0.25 s: process CPU
// of the other worker is only current to a scheduler tick, which a
// single ~25 ms batch cannot absorb.
constexpr int kBatchesPerWindow = 10;
// Batches per requested wall second; sized so a run lasts about
// --seconds on a 4-vCPU x86 box.
constexpr double kBatchesPerWall = 37.5;
constexpr double kWorldSeconds = 70.0;  // virtual
const char* const kWorldNames[] = {"sapp3", "sapp20", "dcpp_churn"};

struct Job {
  scenario::ExperimentConfig config;
  int world = 0;
  double depart_at = 0;
};

std::vector<Job> make_batch(std::uint64_t seed, int batch, int triples, bool audit) {
  InputRng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(batch) * 0x1000193 +
               0xd5a9e5);
  std::vector<Job> jobs;
  for (int t = 0; t < triples; ++t) {
    for (int w = 0; w < 3; ++w) {
      Job job;
      job.world = w;
      job.config.seed = rng.next();
      job.config.audit_invariants = audit;
      job.config.metrics.record_delay_series = false;
      if (w < 2) {
        job.config.protocol = scenario::Protocol::kSapp;
        job.config.initial_cps = w == 0 ? 3 : 20;
      } else {
        job.config.protocol = scenario::Protocol::kDcpp;
        job.config.initial_cps = 20;
        job.config.dcpp_device.delta_min = 0.1;
        job.config.dcpp_device.d_min = 0.5;
        job.config.join_jitter_max = 0.0;  // Fig 5: synchronous joins
      }
      // Late enough for SAPP delays to have settled, early enough that
      // a CP at the 10 s delay bound still detects before the end.
      job.depart_at = rng.uniform(40.0, 55.0);
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

struct JobOut {
  std::uint64_t cycles = 0, probes = 0, events = 0, delivered = 0, sent = 0;
  std::uint64_t false_absences = 0, violations = 0, high_water = 0;
  double build_s = 0, peak_in_flight = 0;
  std::vector<double> detect_s;
};

struct BatchOut {
  std::vector<JobOut> jobs;
  Usage usage;
  Fingerprint fp;
  std::uint64_t cycles = 0;
};

class PaperRunner {
 public:
  PaperRunner() : runner_(kWorkers) {
    for (unsigned i = 0; i < kWorkers; ++i) rtt_.push_back(ProbeObserver::make_rtt_bins());
  }

  BatchOut run(const std::vector<Job>& jobs) {
    Tracer::Span span("des_paper.batch");
    BatchOut out;
    const Usage u0 = Usage::now();
    out.jobs = runner_.map<JobOut>(
        jobs.size(),
        [&](std::size_t j, scenario::SweepWorkerContext& ctx) {
          return run_job(jobs[j], ctx);
        },
        &registry_);
    out.usage = Usage::now() - u0;
    for (const auto& j : out.jobs) {
      out.fp.events += j.events;
      out.fp.delivered += j.delivered;
      out.fp.detections += j.detect_s.size();
      out.fp.cycles += j.cycles;
      out.fp.false_absences += j.false_absences;
    }
    out.cycles = out.fp.cycles;
    return out;
  }

  /// Reply latencies of every job run so far (virtual, binned).
  BinnedSamples rtt() const {
    BinnedSamples all = ProbeObserver::make_rtt_bins();
    for (const auto& b : rtt_) all.merge(b);
    return all;
  }
  void reset_rtt() {
    for (auto& b : rtt_) b = ProbeObserver::make_rtt_bins();
  }
  telemetry::Registry& registry() { return registry_; }

 private:
  JobOut run_job(const Job& job, scenario::SweepWorkerContext& ctx) {
    // Each worker keeps a CPU of its own for the runner's lifetime.
    thread_local const bool pinned = pin_thread(pthread_self(), static_cast<int>(ctx.worker));
    (void)pinned;
    JobOut out;
    ProbeObserver obs(rtt_[ctx.worker]);
    // Build cost by this worker's CPU clock: waiting for a CPU is not set-up.
    const double t0 = thread_cpu_s();
    std::unique_ptr<scenario::Experiment> exp;
    {
      Tracer::Span span("des_paper.build");
      exp = std::make_unique<scenario::Experiment>(job.config);
      exp->add_observer(obs);
      if (job.world == 2) {
        exp->install_churn(std::make_unique<scenario::DynamicUniformChurn>(1, 60, 0.2));
      }
      exp->schedule_device_departure(job.depart_at);
    }
    out.build_s = thread_cpu_s() - t0;
    // The departure instant, for the observer's detection latencies.
    exp->sim().at(job.depart_at,
                  [&obs, &exp] { obs.departed(exp->device().id(), exp->sim().now()); });
    {
      Tracer::Span span("des_paper.run_until");
      exp->run_until(kWorldSeconds);
    }
    {
      Tracer::Span span("des_paper.finish");
      exp->finish();
    }
    out.cycles = obs.cycles();
    out.probes = obs.probes;
    out.false_absences = obs.false_absences;
    out.events = exp->sim().scheduler().executed_count();
    out.delivered = exp->network().counters().delivered;
    out.sent = exp->network().counters().sent;
    out.high_water = exp->sim().scheduler().queue_high_water();
    out.peak_in_flight = exp->network().max_buffer_occupancy();
    out.violations = exp->auditor() ? exp->auditor()->total_violations() : 0;
    out.detect_s = std::move(obs.detect_s);
    {
      Tracer::Span span("des_paper.record");
      record_replication(*ctx.registry, kWorldNames[job.world], out.cycles, out.events,
                         out.detect_s.data(), out.detect_s.size());
    }
    return out;
  }

  scenario::SweepRunner runner_;
  std::vector<BinnedSamples> rtt_;  ///< one per worker
  telemetry::Registry registry_;
};

struct PaperMeasure {
  std::vector<double> window_rate, window_cpu_us;
  double setup_s = 0;
  std::uint64_t worlds = 0, cycles = 0, probes = 0, events = 0, sent = 0;
  std::uint64_t false_absences = 0, violations = 0;
  std::uint64_t undetected_worlds = 0;
  double high_water_mean = 0, in_flight_mean = 0;
  Usage usage;
  BinnedSamples detect = ProbeObserver::make_detect_bins();
  BinnedSamples rtt = ProbeObserver::make_rtt_bins();
  double sapp_share = 0;  ///< share of cycles from SAPP worlds
  double scrape_ms = 0;
  std::vector<Fingerprint> batch_fp;
  std::size_t jobs_per_batch = 0;
  Reply reply() const {
    return {1e3 * rtt.quantile(0.50), 1e3 * rtt.quantile(0.90), 1e3 * rtt.quantile(0.99)};
  }
};

int batch_count(const Options& opt) {
  return opt.tiny ? 2 : std::max(2, static_cast<int>(kBatchesPerWall * opt.seconds));
}
int triple_count(const Options& opt) { return opt.tiny ? 2 : kTriplesPerBatch; }

PaperMeasure measure(const Options& opt, Result& r, PaperRunner& runner) {
  // The coordinating thread wakes after every batch; on a CPU of its own
  // it never preempts a worker.
  const PinGuard pin(static_cast<int>(kWorkers));
  const int batches = batch_count(opt);
  const int triples = triple_count(opt);
  PaperMeasure m;
  runner.reset_rtt();
  std::uint64_t sapp_cycles = 0;
  const Usage u0 = Usage::now();
  const double t0 = now_s();
  Usage window_u0 = u0;
  double window_t0 = t0;
  std::uint64_t window_cycles = 0;
  for (int b = 0; b < batches; ++b) {
    BatchOut out = runner.run(make_batch(opt.seed, b, triples, true));
    window_cycles += out.cycles;
    if ((b + 1) % kBatchesPerWindow == 0 || b + 1 == batches) {
      const Usage u = Usage::now();
      const double t = now_s();
      m.window_rate.push_back(static_cast<double>(window_cycles) / (t - window_t0));
      m.window_cpu_us.push_back(1e6 * (u - window_u0).cpu_s() /
                                static_cast<double>(window_cycles));
      window_u0 = u;
      window_t0 = t;
      window_cycles = 0;
    }
    for (std::size_t j = 0; j < out.jobs.size(); ++j) {
      const JobOut& jo = out.jobs[j];
      m.setup_s += jo.build_s;
      ++m.worlds;
      m.cycles += jo.cycles;
      if (j % 3 != 2) sapp_cycles += jo.cycles;
      m.probes += jo.probes;
      m.events += jo.events;
      m.sent += jo.sent;
      m.false_absences += jo.false_absences;
      m.violations += jo.violations;
      m.high_water_mean += static_cast<double>(jo.high_water);
      m.in_flight_mean += jo.peak_in_flight;
      for (double d : jo.detect_s) m.detect.add(d);
      if (jo.detect_s.empty()) ++m.undetected_worlds;
    }
    m.batch_fp.push_back(out.fp);
    m.jobs_per_batch = out.jobs.size();
  }
  m.usage = Usage::now() - u0;
  m.high_water_mean /= static_cast<double>(m.worlds);
  m.in_flight_mean /= static_cast<double>(m.worlds);
  m.sapp_share = static_cast<double>(sapp_cycles) / static_cast<double>(m.cycles);
  m.rtt = runner.rtt();

  check(m.violations == 0,
        "des_paper: " + std::to_string(m.violations) + " invariant violations");
  check(m.undetected_worlds == 0, "des_paper: " + std::to_string(m.undetected_worlds) +
                                       " worlds never detected their device's departure");
  // Determinism: batch 0 repeats exactly; batch 1 (other seeds) differs.
  const BatchOut again = runner.run(make_batch(opt.seed, 0, triples, true));
  check(again.fp == m.batch_fp[0], "des_paper: batch 0 did not repeat: " +
                                       m.batch_fp[0].str() + " vs " + again.fp.str());
  check(!(m.batch_fp[1] == m.batch_fp[0]), "des_paper: different seeds gave the same counts");
  r.notes.push_back("des_paper determinism: batch 0 " + m.batch_fp[0].str() +
                    " (repeated), batch 1 " + m.batch_fp[1].str());
  if (Tracer::enabled()) {
    std::vector<double> scrapes;
    for (int i = 0; i < 20; ++i) {
      const double s0 = now_s();
      const std::string text = telemetry::to_prometheus(runner.registry());
      scrapes.push_back(now_s() - s0);
      check(text.find("perfbench_cycles_total") != std::string::npos,
            "des_paper: merged registry lacks the job counters");
    }
    m.scrape_ms = 1e3 * median(scrapes);
  }
  return m;
}

/// Auditor share of CPU per cycle, 1 - off / on: untraced batches of the
/// same seeds run with the auditor on and off, interleaved (alternating
/// which goes first), each timed by the same per-batch process CPU.
double measure_audit_share(const Options& opt, PaperRunner& runner) {
  const PinGuard pin(static_cast<int>(kWorkers));
  const int batches = std::max(2, batch_count(opt) / 4);
  double cpu[2] = {0, 0}, cycles[2] = {0, 0};  // [off, on]
  for (int b = 0; b < batches; ++b) {
    for (int k = 0; k < 2; ++k) {
      const bool audit = (b + k) % 2 == 1;
      const BatchOut out = runner.run(make_batch(opt.seed, b, triple_count(opt), audit));
      cpu[audit] += out.usage.cpu_s();
      cycles[audit] += static_cast<double>(out.cycles);
    }
  }
  check(cycles[0] == cycles[1], "des_paper: the auditor changed the simulated cycles");
  return 1.0 - (cpu[0] / cycles[0]) / (cpu[1] / cycles[1]);
}

}  // namespace

Result run_des_paper(const Options& opt) {
  Result r;
  PaperRunner runner;
  const PaperMeasure m = measure(opt, r, runner);
  r.attempted = m.cycles;
  r.failed = m.false_absences;
  set_end_to_end(r, median(m.window_rate), median(m.window_cpu_us),
                 1e3 * m.detect.quantile(0.50), 1e3 * m.detect.quantile(0.99), m.setup_s);
  note_reply(r, m.reply(), "virtual");
  r.notes.push_back("des_paper: " + std::to_string(m.worlds) + " worlds, " +
                    std::to_string(m.detect.count()) + " detections, " +
                    std::to_string(m.cycles) + " cycles");
  r.notes.push_back("des_paper window cpu us/cycle: " + spread(m.window_cpu_us));
  if (!opt.trace) return r;

  Tracer::enable(true);
  Result traced_notes;
  const PaperMeasure t = measure(opt, traced_notes, runner);
  Tracer::enable(false);
  const auto self = Tracer::self_seconds();
  Tracer::write_chrome(".bench_runs/des_paper-trace.json");
  const double audit_share = measure_audit_share(opt, runner);

  const double cycles = static_cast<double>(t.cycles);
  const double cpu_us = median(t.window_cpu_us);
  LayerMetrics lm;
  lm.events_per_cycle = static_cast<double>(t.events) / cycles;
  lm.ns_per_event = des_ns_per_event(static_cast<std::size_t>(t.high_water_mean), 1.0);
  lm.cancel_per_schedule = (cycles - static_cast<double>(t.false_absences + t.detect.count())) /
                           (static_cast<double>(t.events) + cycles);
  lm.messages_per_cycle = static_cast<double>(t.sent) / cycles;
  double net_des_ns = 0;
  lm.ns_per_message = net_ns_per_message(
      static_cast<std::size_t>(std::max(1.0, t.in_flight_mean)), 0.0, net_des_ns);
  lm.peak_in_flight = t.in_flight_mean;
  lm.probes_per_cycle = static_cast<double>(t.probes) / cycles;
  const double sapp = t.sapp_share;
  lm.ns_per_step = sapp * core_ns_per_sapp_step() + (1 - sapp) * core_ns_per_dcpp_grant();
  lm.audit_share = audit_share;
  lm.violations = static_cast<double>(t.violations);
  lm.reply = t.reply();
  lm.setup_ms_per_world = 1e3 * t.setup_s / static_cast<double>(t.worlds);
  lm.merge_ms = merge_ms(kWorkers, t.jobs_per_batch / kWorkers);
  lm.ns_per_observe = telemetry_ns_per_observe();
  lm.scrape_ms = t.scrape_ms;
  lm.sys_us_per_cycle = 1e6 * t.usage.sys_s / cycles;
  lm.user_us_per_cycle = 1e6 * t.usage.user_s / cycles;

  CostTable table;
  table.total_us = cpu_us;
  table.set("des", lm.events_per_cycle * lm.ns_per_event * 1e-3);
  table.set("net", lm.messages_per_cycle * (lm.ns_per_message - net_des_ns) * 1e-3);
  table.set("core", lm.ns_per_step * 1e-3);
  table.set("check", lm.audit_share * cpu_us);
  const double merges_s = lm.merge_ms * 1e-3 * static_cast<double>(t.batch_fp.size());
  table.set("scenario", 1e6 * (t.setup_s + merges_s) / cycles);
  table.set("telemetry", lm.ns_per_observe * 1e-3 * static_cast<double>(t.detect.count()) / cycles);
  table.set("kernel", lm.sys_us_per_cycle);

  Result out;
  out.attempted = t.cycles;
  out.failed = t.false_absences;
  out.notes = r.notes;
  out.notes.push_back("span self time (s):");
  for (const auto& [name, s] : self) out.notes.push_back("  " + name + " " + std::to_string(s));
  lm.trace_overhead_share = cpu_us / r.get("cpu_us_per_cycle") - 1.0;
  publish_layers(out, lm, table, "des_paper");
  return out;
}

}  // namespace perfbench
