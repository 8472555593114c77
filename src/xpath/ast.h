#ifndef CXML_XPATH_AST_H_
#define CXML_XPATH_AST_H_

#include <memory>
#include <string>
#include <vector>

namespace cxml::xpath {

/// Axes of the Extended XPath (paper §4 / TR 394-04): the 12 XPath 1.0
/// tree axes reinterpreted over the GODDAG, plus the `overlapping` family
/// that only makes sense with concurrent markup.
enum class AxisKind {
  kChild,
  kDescendant,
  kParent,
  kAncestor,
  kFollowingSibling,
  kPrecedingSibling,
  kFollowing,
  kPreceding,
  kAttribute,
  kSelf,
  kDescendantOrSelf,
  kAncestorOrSelf,
  // --- concurrent-markup extensions ---
  /// Elements whose extent properly overlaps the context node's.
  kOverlapping,
  /// Overlapping elements that *start inside* the context node
  /// (ctx.begin < n.begin < ctx.end < n.end).
  kOverlappingStart,
  /// Overlapping elements that *end inside* the context node
  /// (n.begin < ctx.begin < n.end < ctx.end).
  kOverlappingEnd,
};

const char* AxisKindToString(AxisKind axis);

/// True for axes whose proximity position counts backwards in document
/// order (XPath 1.0 §2.4).
bool IsReverseAxis(AxisKind axis);

/// Node test of a step.
struct NodeTest {
  enum class Kind {
    kName,     ///< element (or attribute) name
    kAnyName,  ///< *
    kText,     ///< text() — GODDAG leaves
    kNode,     ///< node() — any node
  };
  Kind kind = Kind::kAnyName;
  std::string name;
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Static per-step plan, filled in by xpath::Compile's analysis pass
/// (compiled.h) after parsing. Default-constructed steps carry no plan
/// and evaluate exactly as before; the plan only narrows work the
/// evaluator would do anyway.
///
/// The same pass also rewrites the AST in one place, so a compiled
/// query is no longer the parse tree step for step: an absolute path
/// whose first two steps are the bare `//` expansion
/// `descendant-or-self::node()` and `child(h?)::T[p]` (T a name or
/// `*`, every p statically boolean-typed and free of position() and
/// last()) becomes `descendant(h?)::T[p]`. From the document node both
/// forms select the root plus the attached elements of h named T (every
/// attached element is a child of the root or of an attached element of
/// its own hierarchy, leaves have no children, and the (h, T) pool
/// holds exactly the attached elements), and a predicate that reads
/// neither position nor size keeps the same nodes whether it filters
/// per parent window or over the whole pool. Plan-less evaluation of
/// the parsed AST stays the oracle the compiled form is tested
/// against.
struct StepPlan {
  /// A leading positional predicate the indexed evaluator may push
  /// into the SnapshotIndex pool scan instead of materialising the
  /// full axis window first (descendant/child steps only).
  enum class Positional : uint8_t { kNone, kFirst, kLast };
  Positional positional = Positional::kNone;
  /// The axis consults (hierarchy, tag) pools on a SnapshotIndex
  /// (descendant, ancestor, following, preceding, overlapping family).
  bool uses_pools = false;
  /// False for steps the index cannot accelerate (child/parent/
  /// sibling/self/attribute walks) — the seam future per-step strategy
  /// choice hangs off.
  bool index_friendly = false;
};

/// One location step: axis(hierarchy)::test[pred]...
/// `hierarchy` is the paper's hierarchy qualifier; empty = all
/// hierarchies (the whole GODDAG).
struct Step {
  AxisKind axis = AxisKind::kChild;
  std::string hierarchy;
  NodeTest test;
  std::vector<ExprPtr> predicates;
  /// Filled by xpath::Compile (see StepPlan); inert when defaulted.
  StepPlan plan;
};

/// A location path.
struct LocationPath {
  bool absolute = false;
  std::vector<Step> steps;
};

/// Expression node. A tagged union kept simple and explicit (one struct,
/// unused fields empty) — the evaluator switches on `kind`.
struct Expr {
  enum class Kind {
    kOr,
    kAnd,
    kEquals,
    kNotEquals,
    kLess,
    kLessEq,
    kGreater,
    kGreaterEq,
    kAdd,
    kSubtract,
    kMultiply,
    kDivide,
    kModulo,
    kNegate,
    kUnion,
    kPath,        ///< a LocationPath
    kFilter,      ///< primary expr + predicates (+ optional trailing path)
    kLiteral,     ///< string literal
    kNumber,      ///< numeric literal
    kFunction,    ///< function call
    kVariable,    ///< $name
  };

  Kind kind;
  // kLiteral / kFunction / kVariable
  std::string string_value;
  // kNumber
  double number_value = 0;
  // Binary operands / kNegate child / kFunction args.
  std::vector<ExprPtr> children;
  // kPath; also the trailing path of kFilter (may be empty).
  LocationPath path;
  // kFilter predicates.
  std::vector<ExprPtr> predicates;

  explicit Expr(Kind k) : kind(k) {}

  static ExprPtr Binary(Kind k, ExprPtr lhs, ExprPtr rhs) {
    auto e = std::make_unique<Expr>(k);
    e->children.push_back(std::move(lhs));
    e->children.push_back(std::move(rhs));
    return e;
  }
};

/// Debug rendering of an expression (stable, used in tests).
std::string ToString(const Expr& expr);
std::string ToString(const LocationPath& path);

}  // namespace cxml::xpath

#endif  // CXML_XPATH_AST_H_
