#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

namespace perfbench {

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

std::string Fingerprint::str() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "events=%llu delivered=%llu detections=%llu cycles=%llu false_absences=%llu",
                static_cast<unsigned long long>(events), static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(detections),
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(false_absences));
  return buf;
}

namespace {

Usage from_rusage(const rusage& ru) {
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.nivcsw = ru.ru_nivcsw;
  return u;
}

}  // namespace

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return from_rusage(ru);
}

Usage Usage::thread_now() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return from_rusage(ru);
}

namespace {

/// The CPU set of the process at start-up, read before any pinning.
const cpu_set_t& starting_cpus() {
  static const cpu_set_t set = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    if (sched_getaffinity(0, sizeof(s), &s) != 0) CPU_ZERO(&s);
    return s;
  }();
  return set;
}

// Read it while main() is still the only thread.
[[maybe_unused]] const cpu_set_t& g_starting_cpus = starting_cpus();

}  // namespace

bool pin_thread(pthread_t thread, int index) {
  const cpu_set_t& all = starting_cpus();
  for (int cpu = CPU_SETSIZE - 1, seen = 0; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &all)) continue;
    if (seen++ < index) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return pthread_setaffinity_np(thread, sizeof(one), &one) == 0;
  }
  return false;
}

void unpin_thread(pthread_t thread) {
  const cpu_set_t& all = starting_cpus();
  if (CPU_COUNT(&all) > 0) pthread_setaffinity_np(thread, sizeof(all), &all);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

std::uint64_t status_kib(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream in(line.substr(prefix.size()));
    std::uint64_t kib = 0;
    in >> kib;
    return kib;
  }
  return 0;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

double peak_rss_mb() {
  return static_cast<double>(status_kib("VmHWM")) / 1024.0;
}

std::uint64_t current_rss_bytes() { return status_kib("VmRSS") * 1024; }

double loadavg_1m() {
  std::ifstream in("/proc/loadavg");
  double v = 0;
  in >> v;
  return v;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string spread(const std::vector<double>& v) {
  if (v.empty()) return "none";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.6g / %.6g / %.6g (n=%zu)",
                *std::min_element(v.begin(), v.end()), median(v),
                *std::max_element(v.begin(), v.end()), v.size());
  return buf;
}

void BinnedSamples::merge(const BinnedSamples& o) {
  for (std::size_t i = 0; i < counts_.size() && i < o.counts_.size(); ++i) {
    counts_[i] += o.counts_[i];
  }
  total_ += o.total_;
}

double BinnedSamples::quantile(double q) const {
  if (total_ == 0) return 0.0;
  auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_)));
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum >= rank) return static_cast<double>(i + 1) * width_;
  }
  return static_cast<double>(counts_.size()) * width_;
}

void Result::set(const std::string& name, double value, const std::string& unit) {
  for (auto& m : metrics) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

double Result::get(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.first == name) return m.second.first;
  }
  throw std::logic_error("perfbench: metric not set: " + name);
}

void Result::emit(const Options& opt) const {
  for (const auto& m : metrics) {
    check(std::isfinite(m.second.first), "metric " + m.first + " is not finite");
  }
  std::ostringstream metrics_json;
  metrics_json << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) metrics_json << ", ";
    metrics_json << "\"" << metrics[i].first << "\": {\"value\": "
                 << number(metrics[i].second.first) << ", \"unit\": \""
                 << metrics[i].second.second << "\"}";
  }
  metrics_json << "}";
  std::ostringstream noise_json;
  noise_json << "{";
  for (std::size_t i = 0; i < noise.size(); ++i) {
    if (i) noise_json << ", ";
    noise_json << "\"" << noise[i].first << "\": " << number(noise[i].second);
  }
  noise_json << "}";
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": " << metrics_json.str() << "}";

  ::mkdir(".bench_runs", 0755);
  const std::string path = ".bench_runs/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
                 "\"trace\": %d, \"noise\": %s, \"result\": %s}\n",
                 opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                 opt.seconds, opt.trace ? 1 : 0, noise_json.str().c_str(),
                 line.str().c_str());
    std::fclose(f);
  }

  for (const auto& n : notes) std::printf("# %s\n", n.c_str());
  std::printf("{\"noise\": %s}\n", noise_json.str().c_str());
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Tracer

namespace {

struct SpanRec {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;
};

struct ThreadSpans {
  std::uint32_t tid = 0;
  std::vector<SpanRec> spans;
  std::vector<std::int64_t> open;
};

std::mutex g_mutex;
std::deque<std::unique_ptr<ThreadSpans>> g_threads;  // guarded by g_mutex
bool g_enabled = false;

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ThreadSpans& local_spans() {
  thread_local ThreadSpans* mine = nullptr;
  if (!mine) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    mine = g_threads.back().get();
    mine->tid = static_cast<std::uint32_t>(g_threads.size());
  }
  return *mine;
}

}  // namespace

void Tracer::enable(bool on) { g_enabled = on; }
bool Tracer::enabled() { return g_enabled; }

Tracer::Span::Span(const char* name) {
  if (!g_enabled) return;
  ThreadSpans& t = local_spans();
  const std::int64_t parent = t.open.empty() ? -1 : t.open.back();
  index_ = static_cast<std::int64_t>(t.spans.size());
  t.spans.push_back({name, mono_ns(), 0, parent});
  t.open.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  ThreadSpans& t = local_spans();
  t.spans[static_cast<std::size_t>(index_)].end_ns = mono_ns();
  t.open.pop_back();
}

std::vector<std::pair<std::string, double>> Tracer::self_seconds() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::map<std::string, double> self;
  for (const auto& t : g_threads) {
    std::vector<std::int64_t> child_ns(t->spans.size(), 0);
    for (const auto& s : t->spans) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const auto& s = t->spans[i];
      self[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
  }
  return {self.begin(), self.end()};
}

void Tracer::write_chrome(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;
  std::int64_t t0 = INT64_MAX;
  for (const auto& t : g_threads) {
    for (const auto& s : t->spans) t0 = std::min(t0, s.start_ns);
  }
  std::fprintf(f, "[\n");
  bool first = true;
  for (const auto& t : g_threads) {
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const auto& s = t->spans[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                   "\"parent\": %lld}}",
                   first ? "" : ",\n", s.name, t->tid,
                   static_cast<double>(s.start_ns - t0) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   static_cast<long long>(s.parent));
      first = false;
    }
  }
  std::fprintf(f, "\n]\n");
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// CostTable

CostTable::CostTable() {
  for (const char* layer : {"des", "net", "core", "check", "scenario", "telemetry",
                            "runtime.timers", "runtime.udp", "kernel"}) {
    rows.emplace_back(layer, 0.0);
  }
}

void CostTable::set(const std::string& layer, double us) {
  for (auto& row : rows) {
    if (row.first == layer) {
      row.second = us;
      return;
    }
  }
  throw std::logic_error("perfbench: unknown cost table layer " + layer);
}

double CostTable::unattributed_us() const {
  double sum = 0;
  for (const auto& row : rows) sum += row.second;
  return total_us - sum;
}

void CostTable::publish(Result& r, const std::string& workload) const {
  // Rows go out as shares of the total: a layer a workload does not
  // exercise then reads 0 as a share, never as a time.
  auto share = [this](double us) { return total_us > 0 ? us / total_us : 0.0; };
  r.notes.push_back("cost table for " + workload + " (us per cycle)");
  for (const auto& row : rows) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-22s %10.4f us  %6.1f%%", row.first.c_str(),
                  row.second, 100.0 * share(row.second));
    r.notes.push_back(buf);
    r.set("cost." + row.first + "_share", share(row.second), "share");
  }
  const double rest = unattributed_us();
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-22s %10.4f us  %6.1f%%", "unattributed", rest,
                100.0 * share(rest));
  r.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf), "  %-22s %10.4f us  (= cpu_us_per_cycle)", "total",
                total_us);
  r.notes.push_back(buf);
  r.set("cost.total_us", total_us, "us");
  r.set("unattributed_share", share(rest), "share");
}

}  // namespace perfbench
