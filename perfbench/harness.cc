#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SleepUntilNs(uint64_t ns) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns)));
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

ZipfRanks::ZipfRanks(size_t n, double s) : cdf_(n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t ZipfRanks::Draw(double u) const {
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

// ---------------------------------------------------------------------------

void PhaseResult::Merge(const PhaseResult& other) {
  attempted += other.attempted;
  ok += other.ok;
  failed += other.failed;
  elapsed_s = std::max(elapsed_s, other.elapsed_s);
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
  for (const std::string& e : other.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
}

void PhaseResult::Append(const PhaseResult& other, bool quiet) {
  const double elapsed = elapsed_s + other.elapsed_s;
  Merge(other);
  elapsed_s = elapsed;
  slices.push_back({other.OkPerSecond(), other.P50Ms(), other.P95Ms(),
                    other.P99Ms(), quiet});
}

std::vector<PhaseResult::Slice> PhaseResult::CountedSlices() const {
  std::vector<Slice> quiet;
  for (const Slice& s : slices) {
    if (s.quiet) quiet.push_back(s);
  }
  return quiet.size() * 2 >= slices.size() ? quiet : slices;
}

namespace {

template <typename Fn>
double SliceMedian(const std::vector<PhaseResult::Slice>& slices, Fn&& f) {
  std::vector<double> v;
  for (const PhaseResult::Slice& s : slices) v.push_back(f(s));
  return Median(std::move(v));
}

}  // namespace

double PhaseResult::OkPerSecond() const {
  if (!slices.empty()) {
    return SliceMedian(CountedSlices(), [](const Slice& s) { return s.ok_per_s; });
  }
  return elapsed_s > 0 ? static_cast<double>(ok) / elapsed_s : 0.0;
}

double PhaseResult::P50Ms() const {
  if (!slices.empty()) {
    return SliceMedian(CountedSlices(), [](const Slice& s) { return s.p50_ms; });
  }
  return Percentile(latency_ms, 0.5);
}

double PhaseResult::P95Ms() const {
  if (!slices.empty()) {
    return SliceMedian(CountedSlices(), [](const Slice& s) { return s.p95_ms; });
  }
  return Percentile(latency_ms, 0.95);
}

double PhaseResult::P99Ms() const {
  if (!slices.empty()) {
    return SliceMedian(CountedSlices(), [](const Slice& s) { return s.p99_ms; });
  }
  return Percentile(latency_ms, 0.99);
}

namespace {

/// Per-worker accumulation, merged after the phase.
struct WorkerTally {
  PhaseResult r;
  void Record(bool ok, double latency_ms, const std::string& error) {
    ++r.attempted;
    if (ok) {
      ++r.ok;
      r.latency_ms.push_back(latency_ms);
    } else {
      ++r.failed;
      r.latency_ms.push_back(std::numeric_limits<double>::infinity());
      if (r.errors.size() < 8) r.errors.push_back(error);
    }
  }
};

/// Replaces the +inf entries of failed requests by the phase length.
void CapFailures(PhaseResult* r) {
  const double cap = r->elapsed_s * 1000.0;
  for (double& v : r->latency_ms) {
    if (std::isinf(v)) v = cap;
  }
}

}  // namespace

PhaseResult ClosedLoop(int workers, double seconds,
                       std::atomic<uint64_t>* seq, const RequestFn& fn) {
  std::vector<WorkerTally> tallies(static_cast<size_t>(workers));
  const uint64_t t0 = NowNs();
  const uint64_t end = t0 + static_cast<uint64_t>(seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        WorkerTally& tally = tallies[static_cast<size_t>(w)];
        std::string error;
        while (NowNs() < end) {
          const uint64_t s = seq->fetch_add(1);
          const uint64_t a = NowNs();
          error.clear();
          const bool ok = fn(w, s, &error);
          tally.Record(ok, static_cast<double>(NowNs() - a) / 1e6, error);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  PhaseResult out;
  for (const WorkerTally& t : tallies) out.Merge(t.r);
  out.elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  CapFailures(&out);
  return out;
}

PhaseResult OpenLoop(int workers, double rate, double seconds,
                     std::atomic<uint64_t>* seq, const RequestFn& fn) {
  const uint64_t n = static_cast<uint64_t>(rate * seconds);
  const double gap_ns = 1e9 / rate;
  std::vector<WorkerTally> tallies(static_cast<size_t>(workers));
  std::atomic<uint64_t> next{0};
  const uint64_t t0 = NowNs() + 2'000'000;
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        WorkerTally& tally = tallies[static_cast<size_t>(w)];
        std::string error;
        for (;;) {
          const uint64_t i = next.fetch_add(1);
          if (i >= n) break;
          const uint64_t due =
              t0 + static_cast<uint64_t>(static_cast<double>(i) * gap_ns);
          if (NowNs() < due) {
            // The generator was free to send on time: any overshoot is
            // its own lateness, not the system's backlog.
            SleepUntilNs(due);
            tally.r.late_ms.push_back(static_cast<double>(NowNs() - due) /
                                      1e6);
          }
          const uint64_t s = seq->fetch_add(1);
          error.clear();
          const bool ok = fn(w, s, &error);
          tally.Record(ok, static_cast<double>(NowNs() - due) / 1e6, error);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  PhaseResult out;
  for (const WorkerTally& t : tallies) out.Merge(t.r);
  out.elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  CapFailures(&out);
  return out;
}

void AlternatingPhases(int workers, double closed_s, double open_s,
                       double rate, int slices, std::atomic<uint64_t>* seq,
                       const RequestFn& fn, PhaseResult* closed,
                       PhaseResult* open) {
  std::vector<PhaseResult> c, o;
  std::vector<double> late;
  for (int i = 0; i < slices; ++i) {
    c.push_back(ClosedLoop(workers, closed_s / slices, seq, fn));
    o.push_back(OpenLoop(workers, rate, open_s / slices, seq, fn));
    late.push_back(Percentile(o.back().late_ms, 0.99));
  }
  const double limit = std::max(kQuietLateMs, 3 * Median(late));
  for (size_t i = 0; i < c.size(); ++i) {
    closed->Append(c[i], late[i] <= limit);
    open->Append(o[i], late[i] <= limit);
  }
}

Sampler::Sampler(int period_ms, std::function<void()> fn)
    : fn_(std::move(fn)), period_ms_(period_ms) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      fn_();
      std::this_thread::sleep_for(std::chrono::milliseconds(period_ms_));
    }
    fn_();
  });
}

Sampler::~Sampler() {
  stop_.store(true, std::memory_order_release);
  thread_.join();
}

int64_t ProcStatus(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::atoll(line.c_str() + len + 1);
    }
  }
  return -1;
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  return static_cast<bool>(out);
}

Usage ProcessUsage() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_ms = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                 1e3 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                 1e3;
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double PromValue(const std::string& text, const std::string& series) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > series.size() &&
        line.compare(0, series.size(), series) == 0 &&
        line[series.size()] == ' ') {
      return std::atof(line.c_str() + series.size() + 1);
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------

uint64_t SpanLog::Add(std::string name, uint64_t parent, uint64_t request,
                      uint64_t start_ns, uint64_t end_ns, int lane) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = std::move(name);
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.request = request;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.lane = lane;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::map<std::string, std::vector<double>> SpanLog::SelfTimesUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, double> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    const double self =
        static_cast<double>(s.end_ns - s.start_ns) - child_ns[s.id];
    out[s.name].push_back(self / 1e3);
  }
  return out;
}

std::map<std::string, std::vector<double>> SpanLog::DurationsUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

std::string SpanLog::ChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) base = std::min(base, s.start_ns);
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu}}",
                  i == 0 ? "" : ",\n", s.name.c_str(), s.lane,
                  static_cast<double>(s.start_ns - base) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out += buf;
  }
  out += "]}\n";
  return out;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

// ---------------------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::SetTiming(const std::string& name,
                       const std::vector<double>& us) {
  Set(name + ".p50", Percentile(us, 0.5), "us");
  Set(name + ".p99", Percentile(us, 0.99), "us");
}

double Report::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.first;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Report::MetricsJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + JsonNumber(entry.first) +
           ", \"unit\": \"" + entry.second + "\"}";
  }
  out += "}";
  return out;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace perfbench
