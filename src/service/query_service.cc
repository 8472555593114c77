#include "service/query_service.h"

#include <chrono>
#include <utility>

#include "common/strings.h"
#include "xpath/engine.h"
#include "xquery/xquery.h"

namespace cxml::service {

namespace {

/// Prepared-handle cache/registry key: one byte of kind + the text, so
/// the same string under the two dialects never collides.
std::string HandleKey(QueryKind kind, std::string_view text) {
  std::string key;
  key.reserve(text.size() + 2);
  key.push_back(kind == QueryKind::kXPath ? 'P' : 'Q');
  key.push_back(':');
  key.append(text);
  return key;
}

using TraceClock = obs::Trace::Clock;

double Micros(TraceClock::time_point from, TraceClock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

QueryKey KeyFor(const DocumentSnapshot& snap, const PreparedQuery& query) {
  return QueryKey{snap.name,       snap.version,         snap.generation,
                  query.canonical, query.canonical_hash, query.kind};
}

}  // namespace

QueryService::QueryService(DocumentStore* store, QueryServiceOptions options)
    : store_(store),
      owned_registry_(options.registry == nullptr
                          ? std::make_unique<obs::Registry>()
                          : nullptr),
      registry_(options.registry != nullptr ? options.registry
                                            : owned_registry_.get()),
      tracer_(obs::Tracer::Options{options.trace_ring_capacity,
                                   options.trace_sample_every,
                                   options.slow_query_us},
              registry_),
      cache_(options.cache_capacity, registry_),
      prepared_lru_(options.prepared_cache_capacity),
      pool_(options.num_threads),
      write_pool_(options.num_write_threads == 0
                      ? 1
                      : options.num_write_threads),
      pipeline_(store, &write_pool_, registry_) {
  requests_ = registry_->GetCounter("cxml_service_requests_total");
  batches_ = registry_->GetCounter("cxml_service_batches_total");
  errors_ = registry_->GetCounter("cxml_service_errors_total");
  prepares_ = registry_->GetCounter("cxml_service_prepares_total");
  query_us_ = registry_->GetHistogram("cxml_query_us");
  queue_us_ = registry_->GetHistogram("cxml_query_queue_us");
  eval_us_ = registry_->GetHistogram("cxml_query_eval_us");
  index_build_us_ = registry_->GetHistogram("cxml_index_build_us");
  index_patch_total_ = registry_->GetCounter("cxml_index_patch_total");
  index_rebuild_total_ = registry_->GetCounter("cxml_index_rebuild_total");
  index_pool_reuse_total_ =
      registry_->GetCounter("cxml_index_pool_reuse_total");
  index_patch_us_ = registry_->GetHistogram("cxml_index_patch_us");
  axis_indexed_ = registry_->GetCounter("cxml_axis_indexed_total");
  axis_naive_ = registry_->GetCounter("cxml_axis_naive_total");
  axis_pushdown_ = registry_->GetCounter("cxml_axis_pushdown_total");
  axis_pool_nodes_ = registry_->GetCounter("cxml_axis_pool_nodes_total");
  listener_id_ = store_->AddVersionListener(
      [this](const std::string& name, uint64_t version) {
        cache_.InvalidateBelow(name, version);
      });
}

QueryService::~QueryService() {
  // Drain in-flight batches (read and write alike) first so no worker
  // touches the cache, the pending maps, or the pipeline
  // mid-destruction, then detach from the store.
  pool_.Shutdown();
  write_pool_.Shutdown();
  store_->RemoveVersionListener(listener_id_);
}

Result<QueryHandle> QueryService::Prepare(const std::string& query,
                                          QueryKind kind) {
  std::string text_key = HandleKey(kind, query);
  {
    std::lock_guard<std::mutex> lock(prepared_mu_);
    if (const QueryHandle* hit = prepared_lru_.Get(text_key)) return *hit;
  }

  // Compile outside the lock: parsing cost must never serialize other
  // submitters. A racing Prepare of the same text compiles twice; the
  // canonical registry below still collapses the two to one handle.
  auto prepared = std::make_shared<PreparedQuery>();
  prepared->kind = kind;
  prepared->text = query;
  if (kind == QueryKind::kXPath) {
    auto compiled = xpath::Compile(query);
    if (!compiled.ok()) {
      return compiled.status().WithContext(
          StrCat(QueryKindToString(kind), " '", query, "'"));
    }
    prepared->xpath = std::move(compiled).value();
    prepared->canonical = prepared->xpath->canonical();
    prepared->canonical_hash = prepared->xpath->canonical_hash();
  } else {
    auto compiled = xquery::Compile(query);
    if (!compiled.ok()) {
      return compiled.status().WithContext(
          StrCat(QueryKindToString(kind), " '", query, "'"));
    }
    prepared->xquery = std::move(compiled).value();
    prepared->canonical = prepared->xquery->canonical();
    prepared->canonical_hash = prepared->xquery->canonical_hash();
  }
  QueryHandle handle = std::move(prepared);

  prepares_->Add();
  std::lock_guard<std::mutex> lock(prepared_mu_);
  // Dedupe through the canonical registry: textual variants (and every
  // connection preparing the same query) share one live handle.
  std::string canonical_key = HandleKey(kind, handle->canonical);
  auto [it, inserted] = prepared_registry_.try_emplace(canonical_key);
  if (!inserted) {
    if (QueryHandle live = it->second.lock()) {
      prepared_lru_.Put(text_key, live);
      return live;
    }
  }
  it->second = handle;
  if (prepared_registry_.size() > 4 * prepared_lru_.capacity()) {
    // Opportunistic prune of expired registrations (weak_ptrs never
    // pin handles, but the map entries themselves need reclaiming).
    for (auto r = prepared_registry_.begin();
         r != prepared_registry_.end();) {
      r = r->second.expired() ? prepared_registry_.erase(r)
                              : std::next(r);
    }
  }
  prepared_lru_.Put(text_key, handle);
  return handle;
}

std::future<EditResponse> QueryService::SubmitEdit(
    std::string document, EditFn apply,
    std::vector<std::string> wal_op_sets) {
  return pipeline_.SubmitEdit(std::move(document), std::move(apply),
                              std::move(wal_op_sets));
}

EditResponse QueryService::ExecuteEdit(std::string document, EditFn apply,
                                       std::vector<std::string> wal_op_sets) {
  return SubmitEdit(std::move(document), std::move(apply),
                    std::move(wal_op_sets))
      .get();
}

std::future<EditResponse> QueryService::SubmitCommit(
    std::string document, std::unique_ptr<EditTransaction> txn,
    std::vector<std::string> wal_op_sets) {
  return pipeline_.SubmitCommit(std::move(document), std::move(txn),
                                std::move(wal_op_sets));
}

std::future<QueryResponse> QueryService::Submit(QueryRequest request) {
  // The string path is a thin wrapper: resolve to a handle (one hash +
  // lookup when hot, a compile on first sight), then share the
  // prepared path. A parse failure answers immediately — it needs no
  // snapshot and no worker.
  Result<QueryHandle> handle = Prepare(request.query, request.kind);
  if (!handle.ok()) {
    requests_->Add();
    errors_->Add();
    std::promise<QueryResponse> promise;
    QueryResponse response;
    response.status = handle.status();
    promise.set_value(std::move(response));
    return promise.get_future();
  }
  return Submit(std::move(request.document), std::move(handle).value());
}

std::future<QueryResponse> QueryService::Submit(std::string document,
                                                QueryHandle handle,
                                                obs::TracePtr trace,
                                                int trace_parent) {
  const TraceClock::time_point submitted = TraceClock::now();
  requests_->Add();

  // A result-cache hit is answered here, on the caller's thread: no
  // pool task, no queue, no index. This probe is the request's one
  // counted cache lookup; a miss (or an unknown document, which the
  // batch reports) joins the per-document queue below.
  if (Result<SnapshotPtr> snap = store_->GetSnapshot(document); snap.ok()) {
    if (CachedResult cached = cache_.Get(KeyFor(**snap, *handle))) {
      const TraceClock::time_point answered = TraceClock::now();
      query_us_->Observe(Micros(submitted, answered));
      if (trace != nullptr) {
        trace->SetStageNote(
            trace->AddStageAbs("cache", submitted, answered, trace_parent),
            "hit");
      }
      QueryResponse response;
      response.items = std::move(cached);
      response.version = (*snap)->version;
      response.cache_hit = true;
      std::promise<QueryResponse> promise;
      promise.set_value(std::move(response));
      return promise.get_future();
    }
  }

  Pending pending;
  pending.handle = std::move(handle);
  pending.trace = std::move(trace);
  pending.trace_parent = trace_parent;
  pending.enqueued = submitted;
  std::future<QueryResponse> future = pending.promise.get_future();

  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_[document].push_back(std::move(pending));
    schedule = scheduled_.insert(document).second;
  }
  if (schedule &&
      !pool_.Submit([this, document] { ServeDocument(document); })) {
    // Pool already shut down: fail the request instead of hanging it.
    std::lock_guard<std::mutex> lock(mu_);
    scheduled_.erase(document);
    auto it = pending_.find(document);
    if (it != pending_.end()) {
      errors_->Add(it->second.size());
      for (Pending& p : it->second) {
        QueryResponse response;
        response.status =
            status::FailedPrecondition("query service is shut down");
        p.promise.set_value(std::move(response));
      }
      pending_.erase(it);
    }
  }
  return future;
}

QueryResponse QueryService::Execute(QueryRequest request) {
  return Submit(std::move(request)).get();
}

QueryResponse QueryService::Execute(std::string document,
                                    QueryHandle handle,
                                    obs::TracePtr trace,
                                    int trace_parent) {
  return Submit(std::move(document), std::move(handle), std::move(trace),
                trace_parent)
      .get();
}

std::vector<QueryResponse> QueryService::ExecuteAll(
    std::vector<QueryRequest> requests) {
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(requests.size());
  for (QueryRequest& request : requests) {
    futures.push_back(Submit(std::move(request)));
  }
  std::vector<QueryResponse> responses;
  responses.reserve(futures.size());
  for (auto& future : futures) responses.push_back(future.get());
  return responses;
}

void QueryService::ServeDocument(const std::string& document) {
  for (;;) {
    // Claim the document's entire pending queue as one batch.
    std::deque<Pending> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = pending_.find(document);
      if (it == pending_.end() || it->second.empty()) {
        // Erase the drained entry too: long-lived services would
        // otherwise keep one empty deque per document name ever seen.
        if (it != pending_.end()) pending_.erase(it);
        scheduled_.erase(document);
        return;
      }
      batch.swap(it->second);
    }
    batches_->Add();
    TraceClock::time_point claimed = TraceClock::now();

    auto snap = store_->GetSnapshot(document);
    if (!snap.ok()) {
      errors_->Add(batch.size());
      for (Pending& p : batch) {
        QueryResponse response;
        response.status = snap.status();
        p.promise.set_value(std::move(response));
      }
      continue;
    }

    // One snapshot pin serves the whole batch; the engines live on the
    // snapshot itself (lazily built once per published version), so
    // every batch against this version shares one SnapshotIndex build
    // and the engines' expression parse caches. Handing the stateful
    // engines out is sound because ServeDocument runs at most once per
    // document at a time (scheduled_ set). The AccelPin keeps a
    // concurrent publish from releasing the superseded snapshot's
    // index/engines while this batch still references them; the last
    // unpin is what lets the store's supersede actually reclaim them.
    SnapshotPtr snapshot = std::move(snap).value();
    DocumentSnapshot::AccelPin accel_pin = snapshot->PinAccel();
    for (Pending& p : batch) {
      QueryResponse response = RunOne(*snapshot, p, claimed);
      if (!response.ok()) errors_->Add();
      p.promise.set_value(std::move(response));
    }
  }
}

QueryResponse QueryService::RunOne(const DocumentSnapshot& snap,
                                   Pending& p,
                                   TraceClock::time_point claimed) {
  const PreparedQuery& query = *p.handle;
  const obs::TracePtr& trace = p.trace;
  const int parent = p.trace_parent;
  TraceClock::time_point start = TraceClock::now();

  // The queue wait ended when the batch claimed this request.
  queue_us_->Observe(Micros(p.enqueued, claimed));
  if (trace != nullptr) {
    trace->AddStageAbs("queue", p.enqueued, claimed, parent);
  }

  QueryResponse response;
  response.version = snap.version;

  // Force the memoized index here (the engines would anyway) so the
  // one-time build cost is measured and attributed to the request that
  // actually paid it instead of vanishing into its eval time.
  bool cold_index = !snap.IndexReady();
  {
    obs::TraceSpan index_span(trace, "index", parent);
    snap.Index();
  }
  if (cold_index) {
    if (snap.index_patched()) {
      index_patch_total_->Add();
      index_pool_reuse_total_->Add(snap.index_pools_shared());
      index_patch_us_->Observe(static_cast<double>(snap.index_build_us()));
    } else {
      index_rebuild_total_->Add();
      index_build_us_->Observe(
          static_cast<double>(snap.index_build_us()));
    }
  }

  // Uncounted re-check (Submit counted this request's lookup): an
  // earlier request of the same batch may have filled the entry, or
  // the batch pinned a newer version than Submit probed.
  obs::TraceSpan cache_span(trace, "cache", parent);
  QueryKey key = KeyFor(snap, query);
  if (CachedResult cached = cache_.Peek(key)) {
    cache_span.EndWithNote("hit");
    response.items = std::move(cached);
    response.cache_hit = true;
    query_us_->Observe(Micros(start, TraceClock::now()));
    return response;
  }
  cache_span.EndWithNote("miss");

  obs::TraceSpan eval_span(trace, "eval", parent);
  TraceClock::time_point eval_start = TraceClock::now();
  xpath::AxisStats axes;
  auto run = [&]() -> Result<std::vector<std::string>> {
    if (query.kind == QueryKind::kXPath) {
      xpath::XPathEngine& engine = snap.XPath();
      engine.ResetAxisStats();
      Result<std::vector<std::string>> r =
          engine.EvaluateToStrings(*query.xpath);
      axes = engine.axis_stats();
      return r;
    }
    xquery::XQueryEngine& engine = snap.XQuery();
    engine.ResetAxisStats();
    Result<std::vector<std::string>> r = engine.Run(*query.xquery);
    axes = engine.axis_stats();
    return r;
  };
  Result<std::vector<std::string>> items = run();
  eval_us_->Observe(Micros(eval_start, TraceClock::now()));
  eval_span.EndWithNote(axes.Summary());
  if (axes.indexed_axes > 0) axis_indexed_->Add(axes.indexed_axes);
  if (axes.naive_axes > 0) axis_naive_->Add(axes.naive_axes);
  if (axes.pushdown_axes > 0) axis_pushdown_->Add(axes.pushdown_axes);
  if (axes.pool_nodes > 0) axis_pool_nodes_->Add(axes.pool_nodes);

  if (!items.ok()) {
    response.status = items.status().WithContext(
        StrCat(QueryKindToString(query.kind), " '", query.text, "'"));
    query_us_->Observe(Micros(start, TraceClock::now()));
    return response;
  }
  response.items = std::make_shared<const std::vector<std::string>>(
      std::move(items).value());
  cache_.Put(key, response.items);
  query_us_->Observe(Micros(start, TraceClock::now()));
  return response;
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  s.requests = requests_->Value();
  s.batches = batches_->Value();
  s.errors = errors_->Value();
  s.prepares = prepares_->Value();
  s.index_patches = index_patch_total_->Value();
  s.index_rebuilds = index_rebuild_total_->Value();
  s.cache = cache_.stats();
  s.writes = pipeline_.stats();
  return s;
}

}  // namespace cxml::service
