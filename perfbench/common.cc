#include <malloc.h>

#include <cstdio>
#include <unordered_set>

#include "bench.h"
#include "workload/text_gen.h"

namespace perfbench {

using spindle::server::LineClient;

void Outcome::Mismatch(const std::string& what) {
  if (correct) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  correct = false;
}

void Outcome::Count(const PhaseResult& phase, const char* label) {
  attempted += phase.attempted;
  failed += phase.failed;
  for (const std::string& e : phase.errors) {
    std::fprintf(stderr, "%s request failed: %s\n", label, e.c_str());
  }
}

void OrExit(const spindle::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
    std::exit(2);
  }
}

uint64_t RowsHash(const std::vector<std::string>& rows) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const std::string& r : rows) {
    for (unsigned char c : r) h = (h ^ c) * 1099511628211ULL;
    h = (h ^ '\n') * 1099511628211ULL;
  }
  return h;
}

std::unique_ptr<LineClient> ConnectOrDie(int port) {
  auto client = std::make_unique<LineClient>();
  spindle::Status st = client->Connect(kHost, port);
  if (!st.ok()) {
    std::fprintf(stderr, "connect to port %d failed: %s\n", port,
                 st.ToString().c_str());
    std::exit(2);
  }
  return client;
}

void RequireHealthy(int port) {
  auto client = ConnectOrDie(port);
  auto r = client->Call("HEALTH");
  if (!r.ok() || r.ValueOrDie().rows.empty() ||
      r.ValueOrDie().rows[0].find("ready=1") == std::string::npos) {
    std::fprintf(stderr, "HEALTH probe on port %d failed\n", port);
    std::exit(2);
  }
}

std::vector<std::unique_ptr<LineClient>> ConnectClients(int port, int n) {
  std::vector<std::unique_ptr<LineClient>> clients;
  for (int i = 0; i < n; ++i) clients.push_back(ConnectOrDie(port));
  return clients;
}

void AnswerLog::Put(uint64_t seq, uint32_t query, uint64_t hash) {
  if (seq >= answers_.size()) return;
  Slot& s = answers_[seq];
  s.answer.query = query;
  s.answer.hash = hash;
  s.set.store(true, std::memory_order_release);
}

std::vector<Answer> AnswerLog::Collected() const {
  std::vector<Answer> out;
  for (const Slot& s : answers_) {
    if (s.set.load(std::memory_order_acquire)) out.push_back(s.answer);
  }
  return out;
}

double RepeatFraction(const std::vector<Answer>& answers) {
  if (answers.empty()) return 0.0;
  std::unordered_set<uint32_t> seen;
  uint64_t repeats = 0;
  for (const Answer& a : answers) {
    if (!seen.insert(a.query).second) ++repeats;
  }
  return static_cast<double>(repeats) / static_cast<double>(answers.size());
}

void ReportReads(const PhaseResult& closed, const PhaseResult& open,
                 double offered_per_s, Outcome* out) {
  out->report.Set("read_qps", closed.OkPerSecond(), "1/s");
  out->report.Set("read_p50_ms", open.P50Ms(), "ms");
  out->report.Set("read_p95_ms", open.P95Ms(), "ms");
  const double late_p99 = Percentile(open.late_ms, 0.99);
  out->report.Set("loadgen.late_p99_ms", late_p99, "ms");
  out->report.Set("loadgen.offered_per_s", offered_per_s, "1/s");
  size_t quiet = 0;
  for (const PhaseResult::Slice& s : open.slices) quiet += s.quiet ? 1 : 0;
  std::fprintf(stderr,
               "reads: closed %llu ok / %llu in %.2fs; open %llu ok / %llu "
               "at %.0f/s; p95 %.3f (pooled %.3f) p99 %.3f (pooled %.3f) ms; "
               "generator late p99 %.3f ms; quiet slices %zu/%zu\n",
               static_cast<unsigned long long>(closed.ok),
               static_cast<unsigned long long>(closed.attempted),
               closed.elapsed_s, static_cast<unsigned long long>(open.ok),
               static_cast<unsigned long long>(open.attempted), offered_per_s,
               open.P95Ms(), Percentile(open.latency_ms, 0.95), open.P99Ms(),
               Percentile(open.latency_ms, 0.99), late_p99, quiet,
               open.slices.size());
  // A generator that could not keep its own schedule measured itself,
  // not the system: the run is invalid.
  constexpr double kMaxLateMs = 10.0;
  if (late_p99 > kMaxLateMs) {
    out->Mismatch("load generator fell behind its schedule (late p99 " +
                  std::to_string(late_p99) + " ms)");
  }
}

void StartServingPeak() {
  malloc_trim(0);
  ResetPeakRss();
}

double PeakRssMb() {
  return static_cast<double>(ProcStatus("VmHWM")) * 1024.0 / 1e6;
}

void ReportServing(double serving_bytes, Outcome* out) {
  out->report.Set("serving_mb", serving_bytes / 1e6, "MB");
}

void ReportStorage(const spindle::StorageByteStats& bytes, Outcome* out) {
  out->report.Set("storage.heap_bytes", static_cast<double>(bytes.heap_bytes),
                  "B");
  out->report.Set("storage.mapped_bytes",
                  static_cast<double>(bytes.mapped_bytes), "B");
  out->report.Set("storage.compressed_bytes",
                  static_cast<double>(bytes.compressed_bytes), "B");
}

void ReportTraceOverhead(const PhaseResult& traced, Outcome* out) {
  const double base_p50 = out->report.Get("read_p50_ms");
  out->report.Set("obs.trace_overhead_frac",
                  base_p50 > 0 ? traced.P50Ms() / base_p50 - 1 : 0.0, "ratio");
}

void TimingFrom(const std::map<std::string, std::vector<double>>& by_span,
                const std::string& span, const std::string& metric,
                Outcome* out) {
  auto it = by_span.find(span);
  if (it != by_span.end()) out->report.SetTiming(metric, it->second);
}

void ReportUsage(const Usage& before, const Usage& after, uint64_t reads,
                 Outcome* out) {
  const double n = reads > 0 ? static_cast<double>(reads) : 1.0;
  out->report.Set("exec.cpu_ms_per_read", (after.cpu_ms - before.cpu_ms) / n,
                  "ms");
  out->report.Set("exec.ctx_switches_per_read",
                  (after.ctx_switches - before.ctx_switches) / n, "count");
}

ThreadPeak::ThreadPeak()
    : sampler_(20, [this] {
        const int64_t t = ProcStatus("Threads");
        int64_t cur = peak_.load();
        while (t > cur && !peak_.compare_exchange_weak(cur, t)) {
        }
      }) {}

PhaseResult PacedWrites(
    double rate, double seconds,
    const std::function<bool(uint64_t, std::string*)>& fn) {
  std::atomic<uint64_t> seq{0};
  return OpenLoop(1, rate, seconds, &seq,
                  [&](int, uint64_t s, std::string* error) {
                    return fn(s, error);
                  });
}


std::string MidFrequencyQuery(int64_t vocab_size, int terms, uint64_t h) {
  const uint64_t lo = static_cast<uint64_t>(std::max<int64_t>(1, vocab_size / 100));
  const uint64_t hi = std::max<uint64_t>(lo + 1, static_cast<uint64_t>(vocab_size / 4));
  std::string q;
  for (int t = 0; t < terms; ++t) {
    h = Mix64(h + static_cast<uint64_t>(t));
    if (t > 0) q.push_back(' ');
    q += spindle::WordForRank(lo + h % (hi - lo));
  }
  return q;
}

std::string ZipfText(int64_t vocab_size, int len, uint64_t h) {
  static std::mutex mu;
  static std::map<int64_t, std::unique_ptr<ZipfRanks>> cache;
  const ZipfRanks* zipf = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto& slot = cache[vocab_size];
    if (!slot) slot = std::make_unique<ZipfRanks>(vocab_size, 1.0);
    zipf = slot.get();
  }
  std::string text;
  for (int i = 0; i < len; ++i) {
    h = Mix64(h);
    if (i > 0) text.push_back(' ');
    text += spindle::WordForRank(zipf->Draw(UnitFromHash(h)));
  }
  return text;
}

}  // namespace perfbench
