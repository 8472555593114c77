#ifndef CXML_SERVICE_QUERY_SERVICE_H_
#define CXML_SERVICE_QUERY_SERVICE_H_

#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/document_store.h"
#include "service/query_cache.h"
#include "service/thread_pool.h"
#include "service/write_pipeline.h"
#include "xpath/compiled.h"
#include "xquery/xquery.h"

namespace cxml::service {

struct QueryRequest {
  std::string document;
  std::string query;
  QueryKind kind = QueryKind::kXPath;
};

/// A prepared query — the service-level compile-once/bind-many handle.
/// Document-independent (Prepare never touches a snapshot) and
/// immutable, so one handle is safely shared across threads and
/// connections and submitted against any document, any number of
/// times. Exactly one of `xpath`/`xquery` is set, matching `kind`.
struct PreparedQuery {
  QueryKind kind = QueryKind::kXPath;
  /// The expression text as submitted (error messages only).
  std::string text;
  /// Canonical rendering + precomputed hash — the result-cache
  /// identity shared by every textual variant of the query.
  std::string canonical;
  uint64_t canonical_hash = 0;
  xpath::CompiledQueryPtr xpath;
  xquery::CompiledQueryPtr xquery;
};

using QueryHandle = std::shared_ptr<const PreparedQuery>;

struct QueryResponse {
  Status status;
  /// String-rendered result items (see XPathEngine::EvaluateToStrings /
  /// XQueryEngine::Run); shared with the cache on a hit.
  CachedResult items;
  /// Document version the query ran against.
  uint64_t version = 0;
  bool cache_hit = false;

  bool ok() const { return status.ok(); }
};

struct ServiceStats {
  uint64_t requests = 0;
  uint64_t batches = 0;
  uint64_t errors = 0;
  /// Prepare() compilations that missed the prepared-handle caches
  /// (string submissions resolve through the same counters).
  uint64_t prepares = 0;
  /// Cold snapshot-index builds that patched the predecessor version's
  /// index vs paying the full rebuild (see SnapshotIndex::Patch).
  uint64_t index_patches = 0;
  uint64_t index_rebuilds = 0;
  CacheStats cache;
  /// Writer-pipeline counters (group commits, retries, errors).
  WriteStats writes;

  /// Requests served per snapshot pin — the batching win.
  double avg_batch_size() const {
    return batches == 0 ? 0.0 : static_cast<double>(requests) / batches;
  }
};

struct QueryServiceOptions {
  size_t num_threads = 4;
  size_t cache_capacity = 1024;
  /// Workers draining the per-document writer queues. Kept separate
  /// from the read pool so a group commit never waits behind a burst
  /// of cold queries (which would put pool queueing delay, not write
  /// work, in the commit tail). One writer thread suffices for most
  /// loads because batching absorbs bursts; raise it when many
  /// distinct documents take writes concurrently.
  size_t num_write_threads = 1;
  /// Bounded LRU of (kind, raw text) → QueryHandle, so hot string
  /// submissions pay one string hash instead of a parse per request.
  size_t prepared_cache_capacity = 256;
  /// Where the service registers its metrics (counters, latency
  /// histograms, cache/write/tracer tallies). nullptr → the service
  /// owns a private registry, so multiple services in one process
  /// (tests, benches) never mix numbers; a server process passes one
  /// registry (or obs::Registry::Global()) to get a single exposition
  /// surface.
  obs::Registry* registry = nullptr;
  /// Finished request traces retained for the TRACE verb (FIFO ring).
  size_t trace_ring_capacity = 64;
  /// Every Nth finished trace is retained (1 = all; 0 disables tracing
  /// and the slow-query log entirely).
  uint32_t trace_sample_every = 1;
  /// Requests slower than this (end-to-end µs) emit one structured
  /// slow-query log line; 0 disables. net::ServerOptions::slow_query_us
  /// forwards here via Tracer::set_slow_query_us.
  uint64_t slow_query_us = 0;
};

/// Executes Extended XPath / XQuery requests against DocumentStore
/// snapshots on a fixed-size thread pool, with per-document request
/// batching: a worker claims every pending request for one document at
/// once, pins the snapshot a single time, and runs the whole batch
/// through the snapshot's own memoized engine pair
/// (DocumentSnapshot::XPath/XQuery, built lazily once per published
/// version together with its goddag::SnapshotIndex) — so N concurrent
/// requests for a hot document cost one pin, and N *batches* against
/// the same version cost one index build + one engine setup instead of
/// N. Per-document serialization (scheduled_) is what makes sharing
/// the stateful engines across batches sound.
///
/// The query API is compile-once/bind-many: Prepare() compiles an
/// expression into a document-independent QueryHandle (deduplicated by
/// canonical text, so every connection preparing the same query shares
/// one object), and Submit(document, handle) runs it with zero
/// per-request parse or canonicalization work. String submission is a
/// thin wrapper: a bounded LRU maps (kind, raw text) → handle, so the
/// hot string path still pays only one hash + lookup.
///
/// Results are memoised in a (document, version, generation, canonical
/// query hash, kind)-keyed LRU cache — textually different but
/// canonically identical queries share one entry — and a DocumentStore
/// version listener invalidates a document's stale entries the moment
/// an edit::Session commit publishes a new version. Submit probes the
/// cache before queueing, so a hit never leaves the submitting thread
/// (a net worker answers it without a hand-off); only misses reach
/// the batches, whose re-check of the cache is uncounted, so the
/// hit/miss counters see each request exactly once.
///
/// Writes batch symmetrically through the per-document WritePipeline
/// (SubmitEdit / SubmitCommit), drained by a dedicated writer lane
/// (ThreadPool of num_write_threads) so commits never queue behind
/// cold reads: a writer claims every pending op-set for a document,
/// clones once (structural storage::Clone) and publishes one group
/// commit — so N queued edits cost one clone + one version bump + one
/// cache invalidation instead of N.
class QueryService {
 public:
  explicit QueryService(DocumentStore* store, QueryServiceOptions options =
                                                  QueryServiceOptions());
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Compiles a query into a reusable, document-independent handle.
  /// Parse + static analysis run at most once per distinct canonical
  /// query: handles are deduplicated through a canonical-keyed
  /// registry, so concurrent Prepares of textual variants all receive
  /// the same shared object.
  Result<QueryHandle> Prepare(const std::string& query, QueryKind kind);

  /// Asynchronous entry points: probe the result cache, else enqueue,
  /// and return immediately. A hit comes back as an already-satisfied
  /// future — answered on the calling thread against the snapshot
  /// current at submission, with no pool task and no index build. A
  /// miss joins the document's batch queue. The string form resolves
  /// the expression through the prepared-handle cache (compiling on
  /// first sight) and otherwise behaves exactly like the handle form.
  /// An optional trace rides along: a hit adds one `cache` stage
  /// noted "hit"; a miss gets queue/index/cache/eval stages under
  /// `trace_parent` as it moves through the batch pipeline.
  std::future<QueryResponse> Submit(QueryRequest request);
  std::future<QueryResponse> Submit(std::string document,
                                    QueryHandle handle,
                                    obs::TracePtr trace = nullptr,
                                    int trace_parent = -1);

  /// Synchronous conveniences: Submit + wait.
  QueryResponse Execute(QueryRequest request);
  QueryResponse Execute(std::string document, QueryHandle handle,
                        obs::TracePtr trace = nullptr,
                        int trace_parent = -1);

  /// Submits all requests, waits for all responses (same order).
  std::vector<QueryResponse> ExecuteAll(std::vector<QueryRequest> requests);

  /// Routes a write through the per-document writer pipeline: FIFO
  /// with the document's other pending writes, grouped into one clone
  /// + one publish + one cache invalidation per batch. `apply` must
  /// tolerate re-execution (see EditFn): a publish race lost to a
  /// direct BeginEdit committer re-applies the batch on the new base.
  /// `wal_op_sets` is the write's wire op text for the durability sink
  /// (see WritePipeline::SubmitEdit).
  std::future<EditResponse> SubmitEdit(
      std::string document, EditFn apply,
      std::vector<std::string> wal_op_sets = {});
  /// Synchronous convenience: SubmitEdit + wait.
  EditResponse ExecuteEdit(std::string document, EditFn apply,
                           std::vector<std::string> wal_op_sets = {});
  /// Queues an EBEGIN-style transaction's commit behind the document's
  /// pending writes; optimistic conflicts surface unchanged.
  std::future<EditResponse> SubmitCommit(
      std::string document, std::unique_ptr<EditTransaction> txn,
      std::vector<std::string> wal_op_sets = {});

  ServiceStats stats() const;
  QueryCache& cache() { return cache_; }
  DocumentStore& store() { return *store_; }
  WritePipeline& pipeline() { return pipeline_; }
  /// The metrics registry every layer of this service reports into —
  /// the external one from QueryServiceOptions::registry, or the
  /// service-owned private one. Backs RenderText for the METRICS verb.
  obs::Registry* registry() { return registry_; }
  /// The request tracer (sampling ring + slow-query log). net::Server
  /// starts/finishes traces here; the service only adds stages.
  obs::Tracer& tracer() { return tracer_; }

 private:
  struct Pending {
    QueryHandle handle;
    std::promise<QueryResponse> promise;
    obs::TracePtr trace;
    int trace_parent = -1;
    /// Submit time, for the cross-thread queue-wait stage.
    obs::Trace::Clock::time_point enqueued;
  };

  /// Claims and runs batches for `document` until its queue drains.
  void ServeDocument(const std::string& document);
  /// Runs one prepared query against the snapshot's memoized engine
  /// pair (DocumentSnapshot::XPath/XQuery) through the result cache,
  /// recording per-stage latency (and trace stages when `p` carries a
  /// trace). `claimed` is when the batch claimed the queue — the end
  /// of this request's queue wait.
  QueryResponse RunOne(const DocumentSnapshot& snap, Pending& p,
                       obs::Trace::Clock::time_point claimed);

  DocumentStore* store_;
  /// Declared before every member that registers metrics (cache_,
  /// tracer_, pipeline_): initialization order is declaration order.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;
  obs::Tracer tracer_;
  QueryCache cache_;
  uint64_t listener_id_ = 0;

  /// Request accounting on lock-free obs counters — multiple
  /// submitters and workers bump them without touching mu_, and
  /// stats() reads exact sums without stopping anyone.
  obs::Counter* requests_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* prepares_ = nullptr;
  /// Per-request latency breakdown (µs): end-to-end, queue wait,
  /// evaluation (cache misses only), and the one-time snapshot index
  /// build attributed to the request that paid it.
  obs::Histogram* query_us_ = nullptr;
  obs::Histogram* queue_us_ = nullptr;
  obs::Histogram* eval_us_ = nullptr;
  obs::Histogram* index_build_us_ = nullptr;
  /// Incremental-index observability: cold builds that patched vs
  /// fully rebuilt, pools aliased from the predecessor, and patch
  /// latency (full-rebuild latency stays in cxml_index_build_us).
  obs::Counter* index_patch_total_ = nullptr;
  obs::Counter* index_rebuild_total_ = nullptr;
  obs::Counter* index_pool_reuse_total_ = nullptr;
  obs::Histogram* index_patch_us_ = nullptr;
  /// Evaluator strategy tallies (see xpath::AxisStats) — the per-axis
  /// selectivity feed for the planned cost-based planner.
  obs::Counter* axis_indexed_ = nullptr;
  obs::Counter* axis_naive_ = nullptr;
  obs::Counter* axis_pushdown_ = nullptr;
  obs::Counter* axis_pool_nodes_ = nullptr;

  /// Prepared-handle state: the raw-text LRU keeps hot string
  /// submissions parse-free; the canonical registry dedupes handles so
  /// textual variants (and every connection) share one object. The
  /// registry holds weak_ptrs — it never pins memory for queries
  /// nobody references — and is pruned opportunistically.
  mutable std::mutex prepared_mu_;
  StringLruCache<QueryHandle> prepared_lru_;
  std::map<std::string, std::weak_ptr<const PreparedQuery>>
      prepared_registry_;

  mutable std::mutex mu_;
  /// Per-document FIFO of pending requests.
  std::map<std::string, std::deque<Pending>> pending_;
  /// Documents that currently have a ServeDocument task queued/running;
  /// requests arriving meanwhile just append and get batched.
  std::set<std::string> scheduled_;

  /// Declared after the query state: workers must stop before the
  /// state above dies (the destructor's Shutdown drains them).
  ThreadPool pool_;
  /// The writer lane: its own (small) pool so commits never queue
  /// behind cold reads. Declared before the pipeline that submits to
  /// it; ~QueryService shuts both pools down before members die.
  ThreadPool write_pool_;
  WritePipeline pipeline_;
};

}  // namespace cxml::service

#endif  // CXML_SERVICE_QUERY_SERVICE_H_
