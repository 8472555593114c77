#ifndef CXML_XPATH_ENGINE_H_
#define CXML_XPATH_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/lru_cache.h"
#include "xpath/compiled.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace cxml::xpath {

/// Facade over parser + evaluator — the "Extended XPath engine" a
/// framework user touches (paper §4: "an efficient implementation of
/// the Extended XPath").
///
/// The query API is compile-once/bind-many: `Prepare` (or the free
/// `xpath::Compile`) turns an expression into an immutable, document-
/// independent CompiledQuery once, and the Evaluate* overloads taking
/// the compiled form run it without any per-call parse or hash work.
/// The string overloads are thin wrappers that fetch the compiled form
/// from a bounded LRU parse cache (engines may live as long as a
/// document snapshot — see service::DocumentSnapshot — so the cache
/// must stay O(1) under adversarial query streams).
class XPathEngine {
 public:
  /// Default parse-cache capacity: generous for any realistic working
  /// set of expressions per document, small enough that a snapshot-
  /// resident engine stays O(1) memory under adversarial query streams.
  static constexpr size_t kDefaultParseCacheCapacity = 128;

  /// `g` must outlive the engine.
  explicit XPathEngine(const goddag::Goddag& g,
                       size_t parse_cache_capacity =
                           kDefaultParseCacheCapacity)
      : g_(&g), evaluator_(g), cache_(parse_cache_capacity) {}

  /// Compiles an expression for this engine's dialect. Document-
  /// independent and stateless — provided on the engine for symmetry
  /// with the service API; identical to the free xpath::Compile.
  static Result<CompiledQueryPtr> Prepare(std::string_view expression) {
    return Compile(expression);
  }

  /// Evaluates against the document node.
  Result<Value> Evaluate(std::string_view expression);
  Result<Value> Evaluate(const CompiledQuery& query) {
    return evaluator_.Evaluate(query.expr());
  }
  /// Evaluates with an explicit context node.
  Result<Value> EvaluateFrom(std::string_view expression,
                             goddag::NodeId context);
  Result<Value> EvaluateFrom(const CompiledQuery& query,
                             goddag::NodeId context) {
    return evaluator_.Evaluate(query.expr(), NodeEntry::Of(context));
  }

  /// Evaluates a pre-parsed expression (used by the XQuery engine, which
  /// compiles embedded expressions once and runs them per tuple).
  Result<Value> EvaluateExpr(const Expr& expr) {
    return evaluator_.Evaluate(expr);
  }

  /// Convenience: evaluates and requires a node-set; returns the GODDAG
  /// nodes (attribute entries resolve to their owning node).
  Result<std::vector<goddag::NodeId>> SelectNodes(
      std::string_view expression);

  /// Evaluates and renders the value for transport: a node-set becomes
  /// one string-value per entry (document order), a scalar one item.
  /// NodeIds never cross this boundary, so results stay meaningful after
  /// the snapshot that produced them is gone — the representation the
  /// service layer caches.
  Result<std::vector<std::string>> EvaluateToStrings(
      std::string_view expression);
  Result<std::vector<std::string>> EvaluateToStrings(
      const CompiledQuery& query);

  /// Binds $name for subsequent evaluations.
  void SetVariable(const std::string& name, Value value) {
    evaluator_.SetVariable(name, std::move(value));
  }

  /// Adopts a prebuilt goddag::SnapshotIndex shared across engines
  /// pinned to the same immutable snapshot (the index is read-only, so
  /// sharing is thread-safe even though each engine is not).
  void UseSnapshotIndex(
      std::shared_ptr<const goddag::SnapshotIndex> index) {
    evaluator_.SetSnapshotIndex(std::move(index));
  }

  /// Selects indexed vs naive-scan axes (see xpath::AxisStrategy); the
  /// naive path is the equivalence oracle for the indexed one.
  void SetAxisStrategy(AxisStrategy strategy) {
    evaluator_.SetAxisStrategy(strategy);
  }

  /// Call after mutating the GODDAG: clears evaluator indexes (the parse
  /// cache stays — expressions do not depend on the instance).
  void InvalidateIndexes() { evaluator_.Reset(); }

  /// Axis-strategy tallies since the last reset (see xpath::AxisStats).
  /// The service layer brackets an evaluation with Reset/read to
  /// attribute strategy choices to a single query.
  const AxisStats& axis_stats() const { return evaluator_.axis_stats(); }
  void ResetAxisStats() { evaluator_.ResetAxisStats(); }

  size_t cache_size() const { return cache_.size(); }
  size_t parse_cache_capacity() const { return cache_.capacity(); }

 private:
  /// Returns the compiled expression, MRU-promoting it. The pointer is
  /// owned by the cache and stays valid until `cache_capacity` newer
  /// distinct expressions evict it — callers use it within the same
  /// evaluation, never across ParseCached calls.
  Result<const CompiledQuery*> ParseCached(std::string_view expression);

  const goddag::Goddag* g_;
  Evaluator evaluator_;
  /// Bounded LRU of compiled expressions keyed by the raw text (the
  /// canonical form would save duplicate entries for whitespace
  /// variants, but would put a full parse on the hot string path —
  /// canonical sharing belongs to the service's result cache).
  StringLruCache<CompiledQueryPtr> cache_;
};

}  // namespace cxml::xpath

#endif  // CXML_XPATH_ENGINE_H_
