// Shared plumbing of the probemon benchmark: options, process
// resource readings, exact quantiles, the result record and the span
// tracer used by traced runs.
#pragma once

#include <pthread.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Shrinks every workload to a few percent of its size; used by the
  /// smoke test, never by measured runs.
  bool tiny = false;
};

/// A broken correctness check. main() turns it into a non-zero exit
/// without printing a result line.
class CheckFailed : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailed with `what` unless `ok`.
void check(bool ok, const std::string& what);

/// The benchmark's own input generator (splitmix64): every generated
/// input derives from --seed through it, never from library RNGs.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * unit(); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU and scheduling counters (getrusage RUSAGE_SELF).
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  std::int64_t nivcsw = 0;
  double cpu_s() const { return user_s + sys_s; }
  static Usage now();
  /// The calling thread only (RUSAGE_THREAD).
  static Usage thread_now();
  Usage operator-(const Usage& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s, nivcsw - o.nivcsw};
  }
};

/// Calling thread's CPU seconds.
double thread_cpu_s();

/// Pins `thread` to the `index`-th CPU counted from the end of the set
/// the process was started with (index 0 = last CPU), so measured
/// threads neither migrate nor share a CPU with each other. Returns
/// false, leaving the thread as it was, when that set has fewer than
/// index + 1 CPUs.
bool pin_thread(pthread_t thread, int index);
/// Undoes pin_thread(): the thread may run on the whole starting set.
void unpin_thread(pthread_t thread);

/// Pins the calling thread with pin_thread() while it lives.
class PinGuard {
 public:
  explicit PinGuard(int index) { pin_thread(pthread_self(), index); }
  ~PinGuard() { unpin_thread(pthread_self()); }
  PinGuard(const PinGuard&) = delete;
  PinGuard& operator=(const PinGuard&) = delete;
};

/// Counts a DES run reaches by a fixed point; they must repeat exactly
/// for a seed and differ for another.
struct Fingerprint {
  std::uint64_t events = 0, delivered = 0, detections = 0, cycles = 0, false_absences = 0;
  bool operator==(const Fingerprint&) const = default;
  std::string str() const;
};

/// VmHWM of this process in MB (MiB).
double peak_rss_mb();
/// Current VmRSS of this process in bytes.
std::uint64_t current_rss_bytes();
/// One-minute load average at the time of the call.
double loadavg_1m();

/// Nearest-rank quantile (q in [0,1]) of `v`; sorts a copy.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// "min / median / max (n)" of `v`, for notes.
std::string spread(const std::vector<double>& v);

/// Fixed-width bins over [0, bins*width): quantiles read exactly at the
/// bin resolution, so they repeat bit for bit for a deterministic input.
class BinnedSamples {
 public:
  BinnedSamples(double width, std::size_t bins)
      : width_(width), counts_(bins, 0) {}
  void add(double x) {
    auto i = static_cast<std::size_t>(x / width_);
    if (i >= counts_.size()) i = counts_.size() - 1;
    ++counts_[i];
    ++total_;
  }
  void merge(const BinnedSamples& o);
  std::uint64_t count() const { return total_; }
  /// Upper edge of the bin holding the nearest-rank q-quantile.
  double quantile(double q) const;

 private:
  double width_;
  std::vector<std::uint32_t> counts_;
  std::uint64_t total_ = 0;
};

/// One run's outcome. `metrics` keep insertion order; `notes` are
/// printed as `# ...` lines ahead of the result line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, double>> noise;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit);
  double get(const std::string& name) const;
  /// Prints notes, a noise line and the final JSON line to stdout, and
  /// stores the same record under .bench_runs/ in the working directory.
  void emit(const Options& opt) const;
};

/// Span tracer for traced runs. Spans are recorded from benchmark code
/// around calls into the library, kept in memory per thread and written
/// as a Chrome trace when the run ends. Disabled tracers cost one
/// branch per span.
class Tracer {
 public:
  static void enable(bool on);
  static bool enabled();
  /// Sum of the self time (duration minus child spans) per span name.
  static std::vector<std::pair<std::string, double>> self_seconds();
  static void write_chrome(const std::string& path);

  class Span {
   public:
    explicit Span(const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    std::int64_t index_ = -1;
  };
};

/// Per-layer cost table (us per cycle) over a fixed set of layers; a
/// layer a workload does not exercise stays 0. Rows plus the
/// unattributed residue sum to `total_us` by construction.
struct CostTable {
  CostTable();
  double total_us = 0;
  std::vector<std::pair<std::string, double>> rows;
  void set(const std::string& layer, double us);
  double unattributed_us() const;
  /// Adds the table to `r` as per-layer metrics and printed notes.
  void publish(Result& r, const std::string& workload) const;
};

}  // namespace perfbench
