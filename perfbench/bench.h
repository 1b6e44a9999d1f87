/// \file bench.h
/// \brief Shared pieces of the four serving workloads (perfbench/README.md):
/// run options, the run outcome, input generation and the phase plan.

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness.h"
#include "server/client.h"
#include "server/line_server.h"
#include "server/query_service.h"
#include "storage/relation.h"
#include "storage/types.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and short phases, checks on (the benchmark's own tests).
  bool smoke = false;
  /// Where a traced run writes its Chrome trace; empty = nowhere.
  std::string trace_dir;
};

/// What a workload hands back: whether every output check passed, every
/// request attempted and failed, and its metrics.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Report report;
  SpanLog spans;

  /// Records a failed output check (printed to stderr).
  void Mismatch(const std::string& what);
  /// Adds a phase's requests to the run's attempts and failures.
  void Count(const PhaseResult& phase, const char* label);
};

void RunSearch(const Options& opts, Outcome* out);
void RunFleet(const Options& opts, Outcome* out);
void RunStrategy(const Options& opts, Outcome* out);

// ---------------------------------------------------------------------------
// Helpers shared by the workloads.

constexpr const char* kHost = "127.0.0.1";
/// Client threads/connections: never more than the host's 4 cores.
constexpr int kClients = 4;
/// Closed/open slices per untraced run (AlternatingPhases). Short slices
/// confine a stall of the shared host to one or two of them.
constexpr int kSlices = 16;

/// Phase lengths for a run of `seconds`: untraced, the closed loop and the
/// open loop (the given shares of the run); traced, a closed loop, an
/// untraced open loop and the traced open loop.
struct Plan {
  double closed_s, open_s;
  double traced_closed_s, traced_base_s, traced_s;
  explicit Plan(double seconds, double closed_share = 0.45)
      : closed_s(seconds * closed_share),
        open_s(seconds * (1.0 - closed_share)),
        traced_closed_s(seconds * 0.25),
        traced_base_s(seconds * 0.25),
        traced_s(seconds * 0.5) {}
};

/// Exits the run (code 2, no result) when a set-up step fails.
template <typename T>
T OrExit(spindle::Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(r).ValueOrDie();
}
void OrExit(const spindle::Status& st, const char* what);

/// A single serving node: a QueryService behind a loopback LineServer.
struct SingleNode {
  std::unique_ptr<spindle::server::QueryService> service;
  std::unique_ptr<spindle::server::LineServer> server;
};

/// 64-bit hash of a response's rows, as stored per request.
uint64_t RowsHash(const std::vector<std::string>& rows);

/// Runs `setup` `times` times, keeping the last result; returns the
/// median wall time in seconds. Earlier instances are destroyed before
/// the next set-up starts.
template <typename T, typename Fn>
double TimedSetups(int times, std::unique_ptr<T>* keep, Fn&& setup) {
  std::vector<double> secs;
  for (int i = 0; i < times; ++i) {
    keep->reset();
    const uint64_t t0 = NowNs();
    *keep = setup();
    secs.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return Median(secs);
}

/// Connects a client or aborts the run.
std::unique_ptr<spindle::server::LineClient> ConnectOrDie(int port);

/// Sends HEALTH and requires a `ready=1` row.
void RequireHealthy(int port);

/// A serving endpoint's per-worker connections.
std::vector<std::unique_ptr<spindle::server::LineClient>> ConnectClients(
    int port, int n);

/// Stored answer of one read: which query it asked and its rows' hash.
struct Answer {
  uint32_t query = 0;
  uint64_t hash = 0;
};

/// Fixed-size per-request answer log (indexed by request seq).
class AnswerLog {
 public:
  explicit AnswerLog(size_t capacity) : answers_(capacity) {}
  void Put(uint64_t seq, uint32_t query, uint64_t hash);
  /// Every stored answer (seq order).
  std::vector<Answer> Collected() const;

 private:
  struct Slot {
    std::atomic<bool> set{false};
    Answer answer;
  };
  std::vector<Slot> answers_;
};

/// Share of requests whose query had already been sent earlier in the run.
double RepeatFraction(const std::vector<Answer>& answers);

/// Sets read_qps from a closed-loop phase and read_p50/p95 from an open
/// loop (medians over the phases' slices), plus the generator's lateness;
/// flags a late generator invalid.
void ReportReads(const PhaseResult& closed, const PhaseResult& open,
                 double offered_per_s, Outcome* out);

/// Returns freed heap to the system and resets the peak resident set
/// size, so that PeakRssMb() covers serving from here on, not set-up.
void StartServingPeak();

/// Peak resident set size (VmHWM) in MB.
double PeakRssMb();

/// Sets serving_mb from the serving state's byte count.
void ReportServing(double serving_bytes, Outcome* out);

/// Sets storage.heap_bytes / mapped_bytes / compressed_bytes.
void ReportStorage(const spindle::StorageByteStats& bytes, Outcome* out);

/// Sets obs.trace_overhead_frac: the traced open loop's p50 over the
/// untraced one's (read_p50_ms, already set), minus 1.
void ReportTraceOverhead(const PhaseResult& traced, Outcome* out);

/// Sets `metric`.p50/.p99 from the spans named `span`, if any.
void TimingFrom(const std::map<std::string, std::vector<double>>& by_span,
                const std::string& span, const std::string& metric,
                Outcome* out);

/// Sets exec.cpu_ms_per_read / exec.ctx_switches_per_read.
void ReportUsage(const Usage& before, const Usage& after, uint64_t reads,
                 Outcome* out);

/// Samples the process's thread count until destroyed.
class ThreadPeak {
 public:
  ThreadPeak();
  int64_t peak() const { return peak_.load(); }

 private:
  std::atomic<int64_t> peak_{0};
  Sampler sampler_;
};

/// Paced writes at `rate` per second for `seconds`; latency counts from
/// each write's due time. `fn(i)` performs write i.
PhaseResult PacedWrites(double rate, double seconds,
                        const std::function<bool(uint64_t, std::string*)>& fn);

/// Query text of `terms` mid-frequency vocabulary words drawn from `h`
/// (the band spindle_serve's query generator uses).
std::string MidFrequencyQuery(int64_t vocab_size, int terms, uint64_t h);

/// Document text: `len` Zipf-distributed vocabulary words.
std::string ZipfText(int64_t vocab_size, int len, uint64_t h);

}  // namespace perfbench
