/// \file harness.h
/// \brief Load generation, timing, span recording and result output for
/// the Spindle serving benchmark (perfbench/README.md).
///
/// Everything here sits outside the program: requests go over the
/// program's own line protocol (server::LineClient) or through its public
/// library calls, and every timing is taken around such a call.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
uint64_t NowNs();

/// Sleeps until the steady-clock instant `ns`.
void SleepUntilNs(uint64_t ns);

/// Linear-interpolated percentile, `q` in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

/// Median of `values`; 0 for an empty sample.
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// SplitMix64 step: a small, seedable, well-mixed generator for inputs.
uint64_t Mix64(uint64_t x);

/// Draws ranks in [0, n) with probability proportional to 1/(rank+1)^s.
class ZipfRanks {
 public:
  ZipfRanks(size_t n, double s);
  /// `u` uniform in [0, 1).
  size_t Draw(double u) const;

 private:
  std::vector<double> cdf_;
};

/// Uniform double in [0, 1) from a 64-bit hash.
inline double UnitFromHash(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// ---------------------------------------------------------------------------
// Load phases.

/// Outcome of one load phase. `latency_ms` holds one entry per attempted
/// request: the time from when the request was due (open loop) or sent
/// (closed loop) to its answer. A failed request counts as taking the
/// whole phase, so it misses every latency figure.
struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  double elapsed_s = 0.0;
  std::vector<double> latency_ms;
  /// Open loop only: how late the generator sent requests it was free to
  /// send on time (sleep overshoot), in ms.
  std::vector<double> late_ms;
  std::vector<std::string> errors;  ///< first few failure messages
  /// Per appended slice: completed requests per second, latency
  /// percentiles (ms), and whether the host let the load generator keep
  /// its schedule meanwhile.
  struct Slice {
    double ok_per_s = 0, p50_ms = 0, p95_ms = 0, p99_ms = 0;
    bool quiet = true;
  };
  std::vector<Slice> slices;

  /// Adds a concurrent worker's tally (elapsed: the longer one).
  void Merge(const PhaseResult& other);
  /// Adds a later slice of the same phase (elapsed: summed) and records
  /// its summary in `slices`.
  void Append(const PhaseResult& other, bool quiet);
  /// Slices that count: the quiet ones when at least half are quiet, else
  /// all of them.
  std::vector<Slice> CountedSlices() const;

  /// Completed requests per second and latency percentiles: the median
  /// over the counted slices when the phase was run in slices (so one
  /// stalled slice does not move it), else over the whole phase.
  double OkPerSecond() const;
  double P50Ms() const;
  double P95Ms() const;
  double P99Ms() const;
};

/// One request on behalf of client `worker` (each worker owns its own
/// connection); `seq` numbers requests uniquely within the run. Returns
/// false on failure and may fill `error`.
using RequestFn =
    std::function<bool(int worker, uint64_t seq, std::string* error)>;

/// Closed loop: `workers` clients each send their next request as soon as
/// the previous one answers, for `seconds`.
PhaseResult ClosedLoop(int workers, double seconds,
                       std::atomic<uint64_t>* seq, const RequestFn& fn);

/// Open loop: requests fall due every 1/`rate` seconds for `seconds`;
/// `workers` clients take them in due order. Latency counts from the due
/// time, so a stall delays every request due behind it.
PhaseResult OpenLoop(int workers, double rate, double seconds,
                     std::atomic<uint64_t>* seq, const RequestFn& fn);

/// Alternates `slices` closed-loop and open-loop slices, closed first, so
/// both phases sample the run's background work (cache growth) alike;
/// accumulates them into `closed` and `open`. A pair of slices is quiet
/// unless the generator's p99 oversleep in the open slice exceeds both
/// kQuietLateMs and three times the run's median slice: then the host
/// withheld CPU from this process, and the pair measured the host rather
/// than the system.
constexpr double kQuietLateMs = 0.25;
void AlternatingPhases(int workers, double closed_s, double open_s,
                       double rate, int slices, std::atomic<uint64_t>* seq,
                       const RequestFn& fn, PhaseResult* closed,
                       PhaseResult* open);

/// Runs `fn` every `period_ms` on a background thread until destroyed.
class Sampler {
 public:
  Sampler(int period_ms, std::function<void()> fn);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

 private:
  std::function<void()> fn_;
  int period_ms_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// A field of /proc/self/status, in its own unit (kB for Vm*); -1 if absent.
int64_t ProcStatus(const char* field);

/// Resets this process's peak resident set size (VmHWM) to its current
/// size; false when the kernel does not allow it.
bool ResetPeakRss();

/// CPU time (user + system) and context switches of this process so far.
struct Usage {
  double cpu_ms = 0.0;
  double ctx_switches = 0.0;
};
Usage ProcessUsage();

/// Value of the first Prometheus sample whose series (name plus optional
/// label set) is exactly `series`; 0 when absent.
double PromValue(const std::string& text, const std::string& series);

// ---------------------------------------------------------------------------
// Spans (traced runs).

/// In-memory spans around calls into the program's layers. A span's
/// parent is the call that contains it in the program; when the benchmark
/// times a nested call separately (it cannot time inside a call), the
/// child is recorded as a replay under that parent, and self time is the
/// parent's duration minus its children's durations.
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int lane = 0;
  };

  /// Records a finished span; returns its id.
  uint64_t Add(std::string name, uint64_t parent, uint64_t request,
               uint64_t start_ns, uint64_t end_ns, int lane);

  /// Per span name: self time in us of every span of that name.
  std::map<std::string, std::vector<double>> SelfTimesUs() const;
  /// Per span name: duration in us of every span of that name.
  std::map<std::string, std::vector<double>> DurationsUs() const;

  /// Chrome trace-event JSON (one complete event per span).
  std::string ChromeJson() const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times `fn` and records it as a span; returns the span id.
template <typename Fn>
uint64_t Timed(SpanLog* log, const char* name, uint64_t parent,
               uint64_t request, int lane, Fn&& fn) {
  const uint64_t t0 = NowNs();
  fn();
  const uint64_t t1 = NowNs();
  return log->Add(name, parent, request, t0, t1, lane);
}

// ---------------------------------------------------------------------------
// Results.

/// Metrics by name, each with its unit; printed as the run's result.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Median and p99 of a timing sample as `<name>.p50` / `<name>.p99`.
  void SetTiming(const std::string& name, const std::vector<double>& us);
  double Get(const std::string& name) const;
  /// {"name": {"value": v, "unit": u}, ...}
  std::string MetricsJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Formats a double with all its significant digits (never nan/inf).
std::string JsonNumber(double v);

/// Writes `content` to `path`; false on failure.
bool WriteFile(const std::string& path, const std::string& content);

}  // namespace perfbench
