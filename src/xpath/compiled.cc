#include "xpath/compiled.h"

#include <algorithm>

#include "xpath/parser.h"

namespace cxml::xpath {

uint64_t CanonicalHash(std::string_view canonical) {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

namespace {

/// True when the axis runs on SnapshotIndex (hierarchy, tag) pools —
/// the global axes the index accelerates.
bool AxisUsesPools(AxisKind axis) {
  switch (axis) {
    case AxisKind::kDescendant:
    case AxisKind::kDescendantOrSelf:
    case AxisKind::kAncestor:
    case AxisKind::kAncestorOrSelf:
    case AxisKind::kFollowing:
    case AxisKind::kPreceding:
    case AxisKind::kOverlapping:
    case AxisKind::kOverlappingStart:
    case AxisKind::kOverlappingEnd:
      return true;
    default:
      return false;
  }
}

/// Classifies a step's leading predicate as a pushable positional
/// selection: exactly the literal `1` or the bare `last()` call.
StepPlan::Positional LeadingPositional(const Step& step) {
  if (step.predicates.empty()) return StepPlan::Positional::kNone;
  const Expr& pred = *step.predicates.front();
  if (pred.kind == Expr::Kind::kNumber && pred.number_value == 1.0) {
    return StepPlan::Positional::kFirst;
  }
  if (pred.kind == Expr::Kind::kFunction && pred.string_value == "last" &&
      pred.children.empty()) {
    return StepPlan::Positional::kLast;
  }
  return StepPlan::Positional::kNone;
}

/// True when `pred` is statically boolean-typed: whatever the context,
/// its value is a boolean, node-set or string, which a predicate reads
/// as a truth value and never as a proximity position.
bool IsBooleanTyped(const Expr& pred) {
  switch (pred.kind) {
    case Expr::Kind::kOr:
    case Expr::Kind::kAnd:
    case Expr::Kind::kEquals:
    case Expr::Kind::kNotEquals:
    case Expr::Kind::kLess:
    case Expr::Kind::kLessEq:
    case Expr::Kind::kGreater:
    case Expr::Kind::kGreaterEq:
    case Expr::Kind::kPath:
    case Expr::Kind::kUnion:
    case Expr::Kind::kLiteral:
      return true;
    case Expr::Kind::kFunction: {
      const std::string& f = pred.string_value;
      return f == "not" || f == "boolean" || f == "contains" ||
             f == "starts-with" || f == "true" || f == "false";
    }
    default:
      return false;
  }
}

/// True when `expr` calls position() or last() anywhere, nested
/// predicates and paths included.
bool CallsPositionOrLast(const Expr& expr) {
  if (expr.kind == Expr::Kind::kFunction &&
      (expr.string_value == "position" || expr.string_value == "last")) {
    return true;
  }
  for (const ExprPtr& child : expr.children) {
    if (CallsPositionOrLast(*child)) return true;
  }
  for (const ExprPtr& pred : expr.predicates) {
    if (CallsPositionOrLast(*pred)) return true;
  }
  for (const Step& step : expr.path.steps) {
    for (const ExprPtr& pred : step.predicates) {
      if (CallsPositionOrLast(*pred)) return true;
    }
  }
  return false;
}

/// The leading-`//` rewrite (soundness argument: StepPlan in ast.h):
/// an absolute path starting with the bare `descendant-or-self::node()`
/// expansion followed by `child(h?)::T[p]` (T a name or `*`, every p
/// boolean-typed and position-free) merges the two steps into
/// `descendant(h?)::T[p]`. Inner `//` (after a first step, or after a
/// filter's primary) is never rewritten: from an element context the
/// child walk reaches only the tree children of what lies inside it.
void RewriteLeadingDoubleSlash(LocationPath* path) {
  if (!path->absolute || path->steps.size() < 2) return;
  const Step& dos = path->steps[0];
  if (dos.axis != AxisKind::kDescendantOrSelf ||
      dos.test.kind != NodeTest::Kind::kNode || !dos.hierarchy.empty() ||
      !dos.predicates.empty()) {
    return;
  }
  const Step& child = path->steps[1];
  if (child.axis != AxisKind::kChild ||
      (child.test.kind != NodeTest::Kind::kName &&
       child.test.kind != NodeTest::Kind::kAnyName)) {
    return;
  }
  for (const ExprPtr& pred : child.predicates) {
    if (!IsBooleanTyped(*pred) || CallsPositionOrLast(*pred)) return;
  }
  path->steps.erase(path->steps.begin());
  path->steps[0].axis = AxisKind::kDescendant;
}

struct Analysis {
  std::vector<std::string>* hierarchies;
  std::vector<std::string>* tags;
};

void AnalyzeExpr(Expr* expr, const Analysis& a);

void AnalyzePath(LocationPath* path, const Analysis& a) {
  RewriteLeadingDoubleSlash(path);
  for (Step& step : path->steps) {
    step.plan.uses_pools = AxisUsesPools(step.axis);
    step.plan.index_friendly = step.plan.uses_pools;
    // Positional pushdown is defined for the forward containment steps
    // only: descendant selects from a pool window in document order,
    // child from the (small) children list. [1]/[last()] elsewhere
    // still evaluate the ordinary way.
    if (step.axis == AxisKind::kDescendant ||
        step.axis == AxisKind::kChild) {
      step.plan.positional = LeadingPositional(step);
    }
    if (a.hierarchies != nullptr && !step.hierarchy.empty()) {
      a.hierarchies->push_back(step.hierarchy);
    }
    if (a.tags != nullptr && step.test.kind == NodeTest::Kind::kName) {
      a.tags->push_back(step.test.name);
    }
    for (ExprPtr& pred : step.predicates) AnalyzeExpr(pred.get(), a);
  }
}

void AnalyzeExpr(Expr* expr, const Analysis& a) {
  if (expr == nullptr) return;
  for (ExprPtr& child : expr->children) AnalyzeExpr(child.get(), a);
  for (ExprPtr& pred : expr->predicates) AnalyzeExpr(pred.get(), a);
  AnalyzePath(&expr->path, a);
}

void SortUnique(std::vector<std::string>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

void AnalyzeQuery(Expr* expr, std::vector<std::string>* hierarchies,
                  std::vector<std::string>* tags) {
  AnalyzeExpr(expr, Analysis{hierarchies, tags});
  if (hierarchies != nullptr) SortUnique(hierarchies);
  if (tags != nullptr) SortUnique(tags);
}

Result<CompiledQueryPtr> Compile(std::string_view expression) {
  CXML_ASSIGN_OR_RETURN(ExprPtr parsed, ParseXPath(expression));
  auto compiled = std::shared_ptr<CompiledQuery>(new CompiledQuery());
  compiled->text_ = std::string(expression);
  AnalyzeQuery(parsed.get(), &compiled->hierarchies_, &compiled->tags_);
  compiled->canonical_ = ToString(*parsed);
  compiled->hash_ = CanonicalHash(compiled->canonical_);
  compiled->expr_ = std::move(parsed);
  return CompiledQueryPtr(std::move(compiled));
}

}  // namespace cxml::xpath
