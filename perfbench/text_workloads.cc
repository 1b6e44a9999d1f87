/// \file text_workloads.cc
/// \brief The keyword-search workloads: `search` (one node; its traced run
/// also measures the ingest layer) and `fleet` (4 shards behind a
/// coordinator). See perfbench/README.md for why each exists.

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "bench.h"
#include "ir/indexing.h"
#include "ir/searcher.h"
#include "ir/topk_pruning.h"
#include "server/query_service.h"
#include "shard/coordinator.h"
#include "shard/global_stats.h"
#include "shard/partitioner.h"
#include "storage/catalog.h"
#include "text/analyzer.h"
#include "workload/text_gen.h"

namespace perfbench {

using spindle::Analyzer;
using spindle::RelationPtr;
using spindle::Searcher;
using spindle::SearchOptions;
using spindle::TextIndex;
using spindle::server::LineClient;
using spindle::server::LineServer;
using spindle::server::QueryService;
using spindle::server::SerializeRows;

namespace {

constexpr size_t kTopK = 10;

Analyzer DefaultAnalyzer() {
  return OrExit(Analyzer::Make({}), "analyzer");
}

/// The collection shape spindle_serve --generate uses.
spindle::TextCollectionOptions CollectionShape(int64_t docs, uint64_t seed) {
  spindle::TextCollectionOptions gen;
  gen.num_docs = docs;
  gen.vocab_size = std::max<int64_t>(2000, docs / 2);
  gen.avg_doc_len = 60;
  gen.seed = seed;
  return gen;
}

/// The query stream shared by `search` and `fleet`: a pool of 1-5-term
/// mid-frequency queries whose popularity is Zipf-skewed, so a measured
/// share of requests repeats. Term count is fixed per popularity rank
/// (1 + rank % 5) so every seed offers the same mix of query lengths.
class QueryPool {
 public:
  QueryPool(int64_t vocab, size_t size, uint64_t seed)
      : seed_(seed), zipf_(size, 0.9) {
    for (size_t r = 0; r < size; ++r) {
      queries_.push_back(MidFrequencyQuery(
          vocab, 1 + static_cast<int>(r % 5), Mix64(seed * 7919 + r)));
    }
  }
  uint32_t ForRequest(uint64_t seq) const {
    return static_cast<uint32_t>(zipf_.Draw(
        UnitFromHash(Mix64(seed_ ^ (seq * 0x9e3779b97f4a7c15ULL)))));
  }
  const std::string& text(uint32_t q) const { return queries_[q]; }

 private:
  uint64_t seed_;
  ZipfRanks zipf_;
  std::vector<std::string> queries_;
};

/// In-process oracle for single-node answers: Searcher::Search over an
/// index built from the served relation, serialized like the wire.
class SearchOracle {
 public:
  explicit SearchOracle(RelationPtr docs) : docs_(std::move(docs)) {
    const uint64_t t0 = NowNs();
    index_ = OrExit(TextIndex::Build(docs_, DefaultAnalyzer()), "oracle index");
    build_s_ = static_cast<double>(NowNs() - t0) / 1e9;
    searcher_.InstallIndex(kSig, index_);
  }
  std::vector<std::string> Expected(const std::string& query) {
    SearchOptions so;
    so.top_k = kTopK;
    RelationPtr rows =
        OrExit(searcher_.Search(docs_, kSig, query, so), "oracle search");
    return SerializeRows(*rows);
  }
  /// Compares every stored answer with the oracle (one oracle search per
  /// distinct query).
  void CheckAll(const std::vector<Answer>& answers, const QueryPool& pool,
                Outcome* out) {
    std::unordered_map<uint32_t, uint64_t> expected;
    uint64_t checked = 0;
    for (const Answer& a : answers) {
      auto it = expected.find(a.query);
      if (it == expected.end()) {
        it = expected.emplace(a.query, RowsHash(Expected(pool.text(a.query))))
                 .first;
      }
      ++checked;
      if (it->second != a.hash) {
        out->Mismatch("answer for query '" + pool.text(a.query) +
                      "' differs from the single-node oracle");
        return;
      }
    }
    std::fprintf(stderr, "checked %llu answers (%zu distinct queries)\n",
                 static_cast<unsigned long long>(checked), expected.size());
    if (checked == 0) out->Mismatch("no answers were checked");
  }
  const TextIndex& index() const { return *index_; }
  Searcher& searcher() { return searcher_; }
  const RelationPtr& docs() const { return docs_; }
  double build_s() const { return build_s_; }
  static constexpr const char* kSig = "oracle";

 private:
  RelationPtr docs_;
  spindle::TextIndexPtr index_;
  Searcher searcher_;
  double build_s_ = 0.0;
};

double Bytes(const spindle::StorageByteStats& b) {
  return static_cast<double>(b.total());
}

/// Request outcomes and index cache counters from a service's METRICS.
struct ServiceCounters {
  double shed = 0, deadline = 0, errors = 0, index_hits = 0,
         index_misses = 0;
  void Add(QueryService* svc) {
    const std::string text = svc->MetricsPrometheus();
    shed += PromValue(text, "spindle_requests_total{outcome=\"overloaded\"}");
    deadline += PromValue(
        text, "spindle_requests_total{outcome=\"deadline_exceeded\"}");
    errors += PromValue(text, "spindle_requests_total{outcome=\"error\"}") +
              PromValue(text, "spindle_requests_total{outcome=\"cancelled\"}");
    index_hits += PromValue(text, "spindle_index_hits_total");
    index_misses += PromValue(text, "spindle_index_misses_total");
  }
  void Report(Outcome* out) const {
    out->report.Set("server.shed", shed, "count");
    out->report.Set("server.deadline", deadline, "count");
    out->report.Set("server.errors", errors, "count");
    out->report.Set("ir.index_hits", index_hits, "count");
    out->report.Set("ir.index_misses", index_misses, "count");
  }
};

/// Per-query kernel counters averaged over the traced replays.
struct KernelTally {
  std::mutex mu;
  double n = 0, scored = 0, skipped = 0, decoded = 0, bskipped = 0,
         bytes = 0;
  void Add(const spindle::PruningStats& ps) {
    std::lock_guard<std::mutex> lock(mu);
    n += 1;
    scored += static_cast<double>(ps.docs_scored);
    skipped += static_cast<double>(ps.docs_skipped);
    decoded += static_cast<double>(ps.blocks_decoded);
    bskipped += static_cast<double>(ps.blocks_skipped);
    bytes += static_cast<double>(ps.decode_bytes);
  }
  void Report(Outcome* out) {
    const double d = n > 0 ? n : 1;
    out->report.Set("ir.docs_scored", scored / d, "count/query");
    out->report.Set("ir.docs_skipped", skipped / d, "count/query");
    out->report.Set("ir.blocks_decoded", decoded / d, "count/query");
    out->report.Set("ir.blocks_skipped", bskipped / d, "count/query");
    out->report.Set("ir.decode_bytes", bytes / d, "B/query");
    out->report.Set("ir.block_skip_ratio",
                    bskipped + decoded > 0 ? bskipped / (bskipped + decoded)
                                           : 0.0,
                    "ratio");
  }
};

/// Thread-safe sample of timings in us.
struct UsSample {
  std::mutex mu;
  std::vector<double> us;
  void Add(double v) {
    std::lock_guard<std::mutex> lock(mu);
    us.push_back(v);
  }
};

double Us(uint64_t a, uint64_t b) { return static_cast<double>(b - a) / 1e3; }

// ---------------------------------------------------------------------------
// search

std::unique_ptr<SingleNode> StartSingleNode(const RelationPtr& docs,
                                            const std::string& warm_query) {
  auto node = std::make_unique<SingleNode>();
  node->service = std::make_unique<QueryService>();
  node->service->RegisterCollection("docs", docs);
  // The first search builds the on-demand index.
  spindle::server::SearchRequest req;
  req.collection = "docs";
  req.query = warm_query;
  req.options.top_k = kTopK;
  OrExit(node->service->Search(req), "warm-up search");
  node->server = std::make_unique<LineServer>(node->service.get());
  OrExit(node->server->Start(), "server start");
  RequireHealthy(node->server->port());
  return node;
}

/// Word of letters only, unique per write: lets a search find the one
/// document a write produced.
std::string Marker(uint64_t i) {
  std::string m = "zq";
  do {
    m.push_back(static_cast<char>('a' + i % 26));
    i /= 26;
  } while (i > 0);
  return m;
}

bool HasDoc(const spindle::server::QueryResponse& resp, int64_t id) {
  const spindle::Relation& rel = *resp.rows;
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    if (rel.column(0).Int64At(r) == id) return true;
  }
  return false;
}

/// `docs` with some documents' text replaced.
RelationPtr WithTexts(const RelationPtr& docs,
                      const std::map<int64_t, std::string>& texts) {
  std::vector<int64_t> ids;
  std::vector<std::string> data;
  for (size_t r = 0; r < docs->num_rows(); ++r) {
    const int64_t id = docs->column(0).Int64At(r);
    auto it = texts.find(id);
    ids.push_back(id);
    data.push_back(it != texts.end() ? it->second
                                     : docs->column(1).StringAt(r));
  }
  spindle::Schema schema({{"docID", spindle::DataType::kInt64},
                          {"data", spindle::DataType::kString}});
  std::vector<spindle::Column> cols;
  cols.push_back(spindle::Column::MakeInt64(std::move(ids)));
  cols.push_back(spindle::Column::MakeString(std::move(data)));
  return OrExit(spindle::Relation::Make(std::move(schema), std::move(cols)),
                "updated collection");
}

/// The ingest layer, measured on the search collection after its traced
/// reads: paced in-process UPDATEs (200/s) cycling over a hot set of 100
/// documents, each timed; a live (two-lane) search after every fourth;
/// the time until every sixteenth is visible to a search; then FLUSH.
/// Afterwards every answer over the wire must equal a cold QueryService
/// built from the generated collection plus the writes.
void TraceIngestLayer(QueryService* svc, const RelationPtr& docs,
                      int64_t vocab, const QueryPool& pool, double seconds,
                      uint64_t seed, LineClient* client, Outcome* out) {
  constexpr uint64_t kHotDocs = 100;
  SpanLog& spans = out->spans;
  UsSample freshness;
  int64_t delta_peak = 0;
  std::map<int64_t, std::string> written;
  PhaseResult writes =
      PacedWrites(200.0, seconds, [&](uint64_t i, std::string* error) {
        spindle::server::WriteRequest req;
        req.collection = "docs";
        req.op.kind = spindle::ingest::WriteOp::Kind::kUpdate;
        req.op.doc_id = 1 + static_cast<int64_t>(i % kHotDocs);
        req.op.text = ZipfText(vocab, 60, Mix64(seed * 31 + i)) + " " +
                      Marker(i);
        spindle::Result<spindle::server::QueryResponse> r =
            spindle::Status::Internal("unset");
        const uint64_t t0 = NowNs();
        r = svc->Write(req);
        spans.Add("ingest.write", 0, i, t0, NowNs(), 0);
        if (!r.ok()) {
          *error = r.status().ToString();
          return false;
        }
        written[req.op.doc_id] = req.op.text;
        delta_peak = std::max(
            delta_peak,
            static_cast<int64_t>(svc->LiveStats("docs").delta_docs));
        spindle::server::SearchRequest sreq;
        sreq.collection = "docs";
        sreq.options.top_k = kTopK;
        if (i % 16 == 0) {
          sreq.query = Marker(i);
          for (int attempt = 0; attempt < 1000; ++attempt) {
            auto found = svc->Search(sreq);
            if (found.ok() && HasDoc(found.ValueOrDie(), req.op.doc_id)) {
              freshness.Add(Us(t0, NowNs()));
              break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        if (i % 4 == 0) {
          sreq.query = pool.text(pool.ForRequest(i));
          Timed(&spans, "ingest.live_search", 0, i, 0,
                [&] { (void)svc->Search(sreq); });
        }
        return true;
      });
  out->Count(writes, "write");
  spindle::server::FlushRequest flush;
  flush.collection = "docs";
  const uint64_t f0 = NowNs();
  auto flushed = svc->Flush(flush);
  const double flush_us = Us(f0, NowNs());
  if (!flushed.ok()) {
    out->Mismatch("FLUSH failed: " + flushed.status().ToString());
    return;
  }
  const spindle::ingest::LiveTable::Stats live = svc->LiveStats("docs");
  const auto dur = spans.DurationsUs();
  TimingFrom(dur, "ingest.write", "ingest.write_us", out);
  TimingFrom(dur, "ingest.live_search", "ingest.live_search_us", out);
  out->report.Set("ingest.compactions", static_cast<double>(live.compactions),
                  "count");
  out->report.Set("ingest.compaction_s",
                  static_cast<double>(live.compaction_us) / 1e6, "s");
  out->report.Set("ingest.delta_docs_peak", static_cast<double>(delta_peak),
                  "count");
  out->report.Set("ingest.freshness_p99_us", Percentile(freshness.us, 0.99),
                  "us");
  out->report.Set("ingest.flush_us", flush_us, "us");

  QueryService cold;
  cold.RegisterCollection("docs", WithTexts(docs, written));
  int checked = 0;
  for (const auto& [id, text] : written) {
    // The document's own marker, and a query from the pool.
    const std::string marker = text.substr(text.rfind(' ') + 1);
    for (const std::string& q : {marker, pool.text(static_cast<uint32_t>(
                                             id % 100))}) {
      auto wire = client->Search("docs", kTopK, 0, q);
      spindle::server::SearchRequest req;
      req.collection = "docs";
      req.query = q;
      req.options.top_k = kTopK;
      auto expect = cold.Search(req);
      if (!wire.ok() || !expect.ok() ||
          wire.ValueOrDie().rows != SerializeRows(*expect.ValueOrDie().rows)) {
        out->Mismatch("post-flush answer for '" + q +
                      "' differs from a cold build of the written collection");
        return;
      }
      ++checked;
    }
  }
  std::fprintf(stderr, "checked %d post-flush answers against a cold build\n",
               checked);
}

}  // namespace

void RunSearch(const Options& opts, Outcome* out_ptr) {
  Outcome& out = *out_ptr;
  const int64_t num_docs = opts.smoke ? 3000 : 20000;
  const spindle::TextCollectionOptions shape =
      CollectionShape(num_docs, opts.seed);
  const QueryPool pool(shape.vocab_size, opts.smoke ? 100 : 2000, opts.seed);
  RelationPtr docs =
      OrExit(spindle::GenerateTextCollection(shape), "generate collection");

  std::unique_ptr<SingleNode> node;
  const double setup_s =
      TimedSetups(opts.smoke ? 1 : 3, &node,
                  [&] { return StartSingleNode(docs, pool.text(0)); });
  out.report.Set("setup_s", setup_s, "s");
  QueryService* svc = node->service.get();
  const int port = node->server->port();

  SearchOracle oracle(OrExit(svc->catalog().Get("docs"), "served docs"));
  Analyzer analyzer = DefaultAnalyzer();
  auto clients = ConnectClients(port, kClients);
  AnswerLog answers(1u << 20);
  std::atomic<uint64_t> seq{0};
  ThreadPeak threads;
  const Plan plan(opts.seconds);
  const double rate = opts.smoke ? 200.0 : 1000.0;

  auto wire_read = [&](int w, uint64_t s, std::string* error,
                       uint64_t* t0, uint64_t* t1) {
    const uint32_t q = pool.ForRequest(s);
    *t0 = NowNs();
    auto r = clients[static_cast<size_t>(w)]->Search("docs", kTopK, 0,
                                                     pool.text(q));
    *t1 = NowNs();
    if (!r.ok()) {
      *error = r.status().ToString();
      return false;
    }
    answers.Put(s, q, RowsHash(r.ValueOrDie().rows));
    return true;
  };
  RequestFn plain = [&](int w, uint64_t s, std::string* error) {
    uint64_t t0, t1;
    return wire_read(w, s, error, &t0, &t1);
  };

  if (!opts.trace) {
    PhaseResult closed, open;
    AlternatingPhases(kClients, plan.closed_s, plan.open_s, rate, kSlices, &seq,
                      plain, &closed, &open);
    out.Count(closed, "closed-loop");
    out.Count(open, "open-loop");
    ReportReads(closed, open, rate, &out);
    oracle.CheckAll(answers.Collected(), pool, &out);
    spindle::StorageByteStats bytes = svc->catalog().ByteSizes();
    bytes += oracle.index().ByteSizes();
    ReportServing(Bytes(bytes), &out);
    return;
  }

  // Traced run: an untraced baseline, then the same open loop with every
  // fourth request replayed through the layers it crosses.
  StartServingPeak();
  const Usage u0 = ProcessUsage();
  PhaseResult closed = ClosedLoop(kClients, plan.traced_closed_s, &seq, plain);
  ReportUsage(u0, ProcessUsage(), closed.ok, &out);
  PhaseResult base = OpenLoop(kClients, rate, plan.traced_base_s, &seq, plain);
  KernelTally kernel;
  UsSample queue_wait;
  SpanLog& spans = out.spans;
  RequestFn traced = [&](int w, uint64_t s, std::string* error) {
    uint64_t t0, t1;
    if (!wire_read(w, s, error, &t0, &t1)) return false;
    const uint64_t root = spans.Add("server.roundtrip", 0, s, t0, t1, w);
    if (s % 4 != 0) return true;
    const std::string& query = pool.text(pool.ForRequest(s));
    spindle::server::SearchRequest req;
    req.collection = "docs";
    req.query = query;
    req.options.top_k = kTopK;
    spindle::Result<spindle::server::QueryResponse> resp =
        spindle::Status::Internal("unset");
    const uint64_t svc_span = Timed(&spans, "server.service", root, s, w,
                                    [&] { resp = svc->Search(req); });
    if (!resp.ok()) {
      *error = resp.status().ToString();
      return false;
    }
    queue_wait.Add(static_cast<double>(resp.ValueOrDie().stats.queue_wait_us));
    std::vector<std::string> rows;
    Timed(&spans, "server.serialize", root, s, w,
          [&] { rows = SerializeRows(*resp.ValueOrDie().rows); });
    const uint64_t search_span =
        Timed(&spans, "ir.search", svc_span, s, w, [&] {
          (void)oracle.searcher().Search(oracle.docs(), SearchOracle::kSig,
                                         query, req.options);
        });
    RelationPtr qterms;
    const uint64_t qt_span =
        Timed(&spans, "ir.query_terms", search_span, s, w, [&] {
          qterms = OrExit(oracle.index().QueryTerms(query), "query terms");
        });
    Timed(&spans, "text.analyze", qt_span, s, w,
          [&] { (void)analyzer.Analyze(query); });
    spindle::PruningStats ps;
    Timed(&spans, "ir.rank_topk", search_span, s, w, [&] {
      (void)spindle::RankTopK(oracle.index(), qterms, req.options, &ps);
    });
    kernel.Add(ps);
    return true;
  };
  PhaseResult traced_phase =
      OpenLoop(kClients, rate, plan.traced_s, &seq, traced);
  out.Count(closed, "closed-loop");
  out.Count(base, "open-loop");
  out.Count(traced_phase, "traced");
  ReportReads(closed, base, rate, &out);
  ReportTraceOverhead(traced_phase, &out);
  const std::vector<Answer> all = answers.Collected();
  oracle.CheckAll(all, pool, &out);
  out.report.Set("loadgen.repeat_frac", RepeatFraction(all), "ratio");
  out.report.Set("storage.peak_rss_mb", PeakRssMb(), "MB");
  TraceIngestLayer(svc, docs, shape.vocab_size, pool, plan.traced_s / 2,
                   opts.seed, clients[0].get(), &out);

  const auto self = spans.SelfTimesUs();
  const auto dur = spans.DurationsUs();
  TimingFrom(dur, "server.roundtrip", "server.roundtrip_us", &out);
  TimingFrom(self, "server.roundtrip", "server.wire_self_us", &out);
  TimingFrom(dur, "server.serialize", "server.serialize_us", &out);
  TimingFrom(self, "server.service", "server.service_self_us", &out);
  TimingFrom(dur, "text.analyze", "text.analyze_us", &out);
  TimingFrom(self, "ir.query_terms", "ir.term_lookup_us", &out);
  TimingFrom(dur, "ir.rank_topk", "ir.rank_topk_us", &out);
  TimingFrom(self, "ir.search", "ir.search_self_us", &out);
  out.report.Set("server.queue_wait_p99_us", Percentile(queue_wait.us, 0.99),
                 "us");
  out.report.Set("server.threads_peak", static_cast<double>(threads.peak()),
                 "count");
  kernel.Report(&out);
  out.report.Set("ir.index_build_s", oracle.build_s(), "s");
  ServiceCounters counters;
  counters.Add(svc);
  counters.Report(&out);
  spindle::StorageByteStats bytes = svc->catalog().ByteSizes();
  bytes += oracle.index().ByteSizes();
  ReportStorage(bytes, &out);
}

// ---------------------------------------------------------------------------
// fleet

namespace {

constexpr uint32_t kShards = 4;

struct Fleet {
  std::vector<std::unique_ptr<QueryService>> services;
  std::vector<std::unique_ptr<LineServer>> shard_servers;
  std::vector<std::shared_ptr<spindle::shard::RemoteShardBackend>> backends;
  std::unique_ptr<spindle::shard::ShardCoordinator> coordinator;
  std::unique_ptr<spindle::shard::CoordinatorHandler> handler;
  std::unique_ptr<LineServer> server;
  spindle::shard::GlobalStatsPtr stats;

  ~Fleet() {
    // Front door first, then the coordinator's in-flight dispatches, then
    // the shards they talk to.
    if (server) server->Stop();
    server.reset();
    handler.reset();
    coordinator.reset();
    for (auto& s : shard_servers) s->Stop();
  }
};

std::unique_ptr<Fleet> StartFleet(const RelationPtr& docs,
                                  const std::string& warm_query) {
  auto fleet = std::make_unique<Fleet>();
  fleet->stats =
      OrExit(spindle::shard::GlobalStats::Compute(docs, {}), "global stats");
  for (uint32_t s = 0; s < kShards; ++s) {
    auto svc = std::make_unique<QueryService>();
    svc->RegisterCollection(
        "docs", OrExit(spindle::shard::PartitionCollection(docs, s, kShards),
                       "partition"));
    OrExit(svc->SetGlobalStats("docs", fleet->stats), "install stats");
    auto server = std::make_unique<LineServer>(svc.get());
    OrExit(server->Start(), "shard server start");
    fleet->backends.push_back(
        std::make_shared<spindle::shard::RemoteShardBackend>(
            "shard" + std::to_string(s), kHost, server->port()));
    fleet->services.push_back(std::move(svc));
    fleet->shard_servers.push_back(std::move(server));
  }
  fleet->coordinator = std::make_unique<spindle::shard::ShardCoordinator>();
  for (auto& b : fleet->backends) fleet->coordinator->AddShard(b);
  OrExit(fleet->coordinator->BootstrapGlobalStats("docs"), "bootstrap stats");
  fleet->handler = std::make_unique<spindle::shard::CoordinatorHandler>(
      fleet->coordinator.get());
  fleet->server = std::make_unique<LineServer>(fleet->handler.get());
  OrExit(fleet->server->Start(), "coordinator start");
  // The first query builds every shard's on-demand index.
  auto client = ConnectOrDie(fleet->server->port());
  OrExit(client->Search("docs", kTopK, 0, warm_query), "warm-up search");
  RequireHealthy(fleet->server->port());
  return fleet;
}

}  // namespace

void RunFleet(const Options& opts, Outcome* out_ptr) {
  Outcome& out = *out_ptr;
  const int64_t num_docs = opts.smoke ? 3000 : 20000;
  const spindle::TextCollectionOptions shape =
      CollectionShape(num_docs, opts.seed);
  const QueryPool pool(shape.vocab_size, opts.smoke ? 100 : 2000, opts.seed);
  RelationPtr docs =
      OrExit(spindle::GenerateTextCollection(shape), "generate collection");

  std::unique_ptr<Fleet> fleet;
  const double setup_s =
      TimedSetups(opts.smoke ? 1 : 3, &fleet,
                  [&] { return StartFleet(docs, pool.text(0)); });
  out.report.Set("setup_s", setup_s, "s");
  const int port = fleet->server->port();

  // Oracle: the single-node answer over the unpartitioned collection.
  spindle::Catalog single_node;
  single_node.RegisterEncoded("docs", docs);
  SearchOracle oracle(OrExit(single_node.Get("docs"), "docs"));
  // The shards' own indexes, for the serving footprint.
  spindle::StorageByteStats bytes;
  std::vector<spindle::TextIndexPtr> shard_index;
  for (auto& svc : fleet->services) {
    bytes += svc->catalog().ByteSizes();
    shard_index.push_back(OrExit(
        TextIndex::Build(OrExit(svc->catalog().Get("docs"), "shard docs"),
                         DefaultAnalyzer()),
        "shard index"));
    bytes += shard_index.back()->ByteSizes();
  }

  auto clients = ConnectClients(port, kClients);
  AnswerLog answers(1u << 20);
  std::atomic<uint64_t> seq{0};
  ThreadPeak threads;
  const Plan plan(opts.seconds);
  const double rate = opts.smoke ? 100.0 : 500.0;

  auto wire_read = [&](int w, uint64_t s, std::string* error, uint64_t* t0,
                       uint64_t* t1) {
    const uint32_t q = pool.ForRequest(s);
    *t0 = NowNs();
    auto r = clients[static_cast<size_t>(w)]->Search("docs", kTopK, 0,
                                                     pool.text(q));
    *t1 = NowNs();
    if (!r.ok()) {
      *error = r.status().ToString();
      return false;
    }
    if (r.ValueOrDie().partial) {
      *error = "partial answer";
      return false;
    }
    answers.Put(s, q, RowsHash(r.ValueOrDie().rows));
    return true;
  };
  RequestFn plain = [&](int w, uint64_t s, std::string* error) {
    uint64_t t0, t1;
    return wire_read(w, s, error, &t0, &t1);
  };

  if (!opts.trace) {
    PhaseResult closed, open;
    AlternatingPhases(kClients, plan.closed_s, plan.open_s, rate, kSlices, &seq,
                      plain, &closed, &open);
    out.Count(closed, "closed-loop");
    out.Count(open, "open-loop");
    ReportReads(closed, open, rate, &out);
    oracle.CheckAll(answers.Collected(), pool, &out);
    ReportServing(Bytes(bytes), &out);
    return;
  }

  StartServingPeak();
  const Usage u0 = ProcessUsage();
  PhaseResult closed = ClosedLoop(kClients, plan.traced_closed_s, &seq, plain);
  ReportUsage(u0, ProcessUsage(), closed.ok, &out);
  PhaseResult base = OpenLoop(kClients, rate, plan.traced_base_s, &seq, plain);

  // Replay backends of our own, so the coordinator's pool counts stay its
  // own.
  std::vector<std::unique_ptr<spindle::shard::RemoteShardBackend>> replay;
  for (uint32_t s = 0; s < kShards; ++s) {
    replay.push_back(std::make_unique<spindle::shard::RemoteShardBackend>(
        "replay" + std::to_string(s), kHost,
        fleet->shard_servers[s]->port()));
  }
  Analyzer analyzer = DefaultAnalyzer();
  UsSample slowest, sum_backend, scatter_self, queue_wait;
  SpanLog& spans = out.spans;
  RequestFn traced = [&](int w, uint64_t s, std::string* error) {
    uint64_t t0, t1;
    if (!wire_read(w, s, error, &t0, &t1)) return false;
    const uint64_t root = spans.Add("server.roundtrip", 0, s, t0, t1, w);
    if (s % 4 != 0) return true;
    const std::string& query = pool.text(pool.ForRequest(s));
    spindle::shard::CoordSearchRequest creq;
    creq.collection = "docs";
    creq.query = query;
    creq.options.top_k = kTopK;
    spindle::Result<spindle::shard::CoordSearchResponse> cresp =
        spindle::Status::Internal("unset");
    const uint64_t c0 = NowNs();
    cresp = fleet->coordinator->Search(creq);
    const uint64_t c1 = NowNs();
    const uint64_t coord = spans.Add("shard.coord", root, s, c0, c1, w);
    if (!cresp.ok()) {
      *error = cresp.status().ToString();
      return false;
    }
    Timed(&spans, "server.serialize", root, s, w,
          [&] { (void)SerializeRows(*cresp.ValueOrDie().rows); });
    spindle::Result<spindle::QueryGlobalStats> resolved =
        spindle::Status::Internal("unset");
    const uint64_t r0 = NowNs();
    resolved = fleet->stats->ResolveQuery(query, analyzer);
    const uint64_t r1 = NowNs();
    const uint64_t resolve = spans.Add("shard.resolve", coord, s, r0, r1, w);
    Timed(&spans, "text.analyze", resolve, s, w,
          [&] { (void)analyzer.Analyze(query); });
    if (!resolved.ok()) {
      *error = resolved.status().ToString();
      return false;
    }
    const spindle::QueryGlobalStats& global = resolved.ValueOrDie();
    double max_us = 0, total_us = 0;
    for (uint32_t sh = 0; sh < kShards; ++sh) {
      const uint64_t b0 = NowNs();
      auto remote = replay[sh]->SearchSharded("docs", global, creq.options, 0,
                                              nullptr);
      const uint64_t b1 = NowNs();
      if (!remote.ok()) {
        *error = remote.status().ToString();
        return false;
      }
      const uint64_t backend = spans.Add("shard.backend", coord, s, b0, b1, w);
      max_us = std::max(max_us, Us(b0, b1));
      total_us += Us(b0, b1);
      spindle::server::ShardSearchRequest sreq;
      sreq.collection = "docs";
      sreq.global = global;
      sreq.options = creq.options;
      spindle::Result<spindle::server::QueryResponse> local =
          spindle::Status::Internal("unset");
      const uint64_t local_span =
          Timed(&spans, "shard.backend_local", backend, s, w,
                [&] { local = fleet->services[sh]->SearchSharded(sreq); });
      if (!local.ok()) {
        *error = local.status().ToString();
        return false;
      }
      queue_wait.Add(
          static_cast<double>(local.ValueOrDie().stats.queue_wait_us));
      if (sh == 0) {
        std::vector<std::string> terms;
        for (const auto& t : global.terms) terms.push_back(t.term);
        Timed(&spans, "ir.map_terms", local_span, s, w,
              [&] { (void)shard_index[0]->MapQueryTerms(terms); });
      }
    }
    slowest.Add(max_us);
    sum_backend.Add(total_us);
    scatter_self.Add(std::max(0.0, Us(c0, c1) - Us(r0, r1) - max_us));
    return true;
  };
  PhaseResult traced_phase =
      OpenLoop(kClients, rate, plan.traced_s, &seq, traced);
  out.Count(closed, "closed-loop");
  out.Count(base, "open-loop");
  out.Count(traced_phase, "traced");
  ReportReads(closed, base, rate, &out);
  ReportTraceOverhead(traced_phase, &out);
  const std::vector<Answer> all = answers.Collected();
  oracle.CheckAll(all, pool, &out);
  out.report.Set("loadgen.repeat_frac", RepeatFraction(all), "ratio");
  out.report.Set("storage.peak_rss_mb", PeakRssMb(), "MB");

  const auto self = spans.SelfTimesUs();
  const auto dur = spans.DurationsUs();
  TimingFrom(dur, "server.roundtrip", "server.roundtrip_us", &out);
  TimingFrom(self, "server.roundtrip", "server.wire_self_us", &out);
  TimingFrom(dur, "server.serialize", "server.serialize_us", &out);
  TimingFrom(dur, "text.analyze", "text.analyze_us", &out);
  TimingFrom(dur, "shard.coord", "shard.coord_us", &out);
  TimingFrom(dur, "shard.resolve", "shard.resolve_us", &out);
  TimingFrom(self, "shard.backend", "shard.backend_wire_us", &out);
  TimingFrom(dur, "ir.map_terms", "ir.map_terms_us", &out);
  out.report.SetTiming("shard.slowest_backend_us", slowest.us);
  out.report.SetTiming("shard.sum_backend_us", sum_backend.us);
  out.report.SetTiming("shard.scatter_merge_self_us", scatter_self.us);
  out.report.Set("server.queue_wait_p99_us", Percentile(queue_wait.us, 0.99),
                 "us");
  out.report.Set("server.threads_peak", static_cast<double>(threads.peak()),
                 "count");
  double dials = 0, reuses = 0;
  for (auto& b : fleet->backends) {
    dials += static_cast<double>(b->pool_stats().dials);
    reuses += static_cast<double>(b->pool_stats().reuses);
  }
  out.report.Set("shard.pool_reuse_ratio",
                 dials + reuses > 0 ? reuses / (dials + reuses) : 0.0, "ratio");
  const auto& cm = fleet->coordinator->metrics();
  out.report.Set("shard.hedges", static_cast<double>(cm.hedges_issued.load()),
                 "count");
  out.report.Set("shard.failures",
                 static_cast<double>(cm.shard_failures.load()), "count");
  ServiceCounters counters;
  for (auto& svc : fleet->services) counters.Add(svc.get());
  counters.Report(&out);
  out.report.Set("ir.index_build_s", oracle.build_s(), "s");
  ReportStorage(bytes, &out);
}

}  // namespace perfbench
