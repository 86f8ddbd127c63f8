// A7 — micro-benchmarks of the simulation substrate (google-benchmark).
//
// Not a paper artifact: these quantify the DES kernel, RNG and network
// layers so regressions in the substrate are visible independently of
// protocol behaviour.
#include <benchmark/benchmark.h>

#include <memory>

#include "benchmark_json.hpp"
#include "des/scheduler.hpp"
#include "des/simulation.hpp"
#include "net/network.hpp"
#include "scenario/churn.hpp"
#include "scenario/experiment.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

using namespace probemon;

namespace {

void BM_SchedulerScheduleAndRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    des::Scheduler sched;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sched.schedule_at(static_cast<double>(i % 100), [&fired] { ++fired; });
    }
    sched.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerScheduleAndRun)->Arg(1000)->Arg(100000);

void BM_SchedulerCancelHeavy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    des::Scheduler sched;
    std::vector<des::EventId> ids;
    ids.reserve(n);
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(sched.schedule_at(static_cast<double>(i),
                                      [&fired] { ++fired; }));
    }
    // Cancel every other event (the timer-rearm pattern of probe cycles).
    for (std::size_t i = 0; i < n; i += 2) sched.cancel(ids[i]);
    sched.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerCancelHeavy)->Arg(100000);

void BM_RngNextDouble(benchmark::State& state) {
  util::Rng rng(1);
  double acc = 0;
  for (auto _ : state) {
    acc += rng.next_double();
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngNextDouble);

void BM_ExponentialSample(benchmark::State& state) {
  util::Rng rng(2);
  util::Exponential exp_dist(0.05);
  double acc = 0;
  for (auto _ : state) {
    acc += exp_dist.sample(rng);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ExponentialSample);

class NullClient final : public net::INetworkClient {
 public:
  void on_message(const net::Message&) override { ++received; }
  std::uint64_t received = 0;
};

void BM_NetworkSendDeliver(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    des::Simulation sim(3);
    auto network = net::Network::make_paper_default(sim.scheduler(),
                                                    sim.rng());
    NullClient a, b;
    const auto ida = network->attach(a);
    const auto idb = network->attach(b);
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i) {
      net::Message m;
      m.kind = net::MessageKind::kProbe;
      m.from = ida;
      m.to = idb;
      network->send(m);
    }
    sim.run_all();
    benchmark::DoNotOptimize(b.received);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_NetworkSendDeliver);

// World construction as a DES-layer cost: build and tear down one of the
// paper's small worlds (one device; Fig 2 sapp3, Fig 3 sapp20, Fig 5
// dcpp20 under churn) without running it. Replication-heavy sweeps build
// tens of thousands of these, so per-world set-up is paid per data point.
enum class World { kSapp3, kSapp20, kDcpp20Churn };

void BM_ExperimentBuild(benchmark::State& state, World world) {
  scenario::ExperimentConfig config;
  config.metrics.record_delay_series = false;
  if (world == World::kDcpp20Churn) {
    config.protocol = scenario::Protocol::kDcpp;
    config.initial_cps = 20;
    config.dcpp_device.delta_min = 0.1;
    config.dcpp_device.d_min = 0.5;
    config.join_jitter_max = 0.0;  // Fig 5: synchronous joins
  } else {
    config.protocol = scenario::Protocol::kSapp;
    config.initial_cps = world == World::kSapp3 ? 3 : 20;
  }
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    auto exp = std::make_unique<scenario::Experiment>(config);
    if (world == World::kDcpp20Churn) {
      exp->install_churn(
          std::make_unique<scenario::DynamicUniformChurn>(1, 60, 0.2));
    }
    exp->schedule_device_departure(50.0);
    benchmark::DoNotOptimize(exp.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_ExperimentBuild, sapp3, World::kSapp3);
BENCHMARK_CAPTURE(BM_ExperimentBuild, sapp20, World::kSapp20);
BENCHMARK_CAPTURE(BM_ExperimentBuild, dcpp20, World::kDcpp20Churn);

}  // namespace

// Custom main (instead of benchmark_main) so results also land in
// bench_out/bench_a7_des_micro.json like every other bench.
int main(int argc, char** argv) {
  return benchutil::run_benchmarks_with_json(argc, argv,
                                             "bench_a7_des_micro");
}
