// The benchmark's own ProtocolObserver for the DES workloads: counts
// completed cycles, times each reply from its probe's send (virtual),
// and turns absence declarations into detection latencies or false
// absences against the departure instants the benchmark scheduled.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common.hpp"
#include "core/observer.hpp"

namespace perfbench {

class ProbeObserver final : public probemon::core::ProtocolObserver {
 public:
  /// Reply latencies go to `rtt_s`, which several observers may share
  /// (bin counts add up in any order).
  explicit ProbeObserver(BinnedSamples& rtt) : rtt_s(rtt) {}

  /// The bin layout for virtual reply latencies: 10 us up to 1 s.
  static BinnedSamples make_rtt_bins() { return BinnedSamples(1e-5, 100'000); }
  /// The bin layout for virtual detection latencies: 0.1 ms up to 60 s.
  static BinnedSamples make_detect_bins() { return BinnedSamples(1e-4, 600'000); }

  void on_probe_sent(probemon::net::NodeId cp, probemon::net::NodeId, double t,
                     std::uint8_t) override {
    slot(last_send_, cp) = t;
    ++probes;
  }
  void on_cycle_success(probemon::net::NodeId cp, probemon::net::NodeId, double t,
                        std::uint8_t) override {
    // A CP started with zero jitter sends its first probe inside the
    // Experiment constructor, before this observer is attached; that
    // one reply has no send instant and is not timed.
    const double sent = slot(last_send_, cp);
    if (sent <= t) rtt_s.add(t - sent);
    ++cycles_ok;
  }
  void on_device_declared_absent(probemon::net::NodeId, probemon::net::NodeId device,
                                 double t) override {
    ++absences;
    const double dep = device < departed_at_.size() ? departed_at_[device] : kNever;
    if (t >= dep) {
      detect_s.push_back(t - dep);
    } else {
      ++false_absences;
    }
  }

  /// Called when the benchmark makes `device` go silent at `t`.
  void departed(probemon::net::NodeId device, double t) { slot(departed_at_, device) = t; }

  std::uint64_t cycles() const { return cycles_ok + absences; }

  std::uint64_t probes = 0;
  std::uint64_t cycles_ok = 0;
  std::uint64_t absences = 0;
  std::uint64_t false_absences = 0;
  BinnedSamples& rtt_s;
  std::vector<double> detect_s;

 private:
  static constexpr double kNever = std::numeric_limits<double>::infinity();
  static double& slot(std::vector<double>& v, probemon::net::NodeId id) {
    if (id >= v.size()) v.resize(id + 1024, kNever);
    return v[id];
  }
  std::vector<double> last_send_;
  std::vector<double> departed_at_;
};

}  // namespace perfbench
