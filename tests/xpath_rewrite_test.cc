// The compile-time leading-`//` rewrite (xpath/compiled.cc): an
// absolute `//T[p]` with a name or `*` test and only boolean-typed,
// position-free predicates is compiled to `/descendant::T[p]` and
// answered from the (hierarchy, tag) pool. A seeded generator of
// leading-`//` queries (name and `*` tests, hierarchy qualifiers,
// every rewritable predicate class and the positional, numeric and
// variable ones that must not be rewritten, nested absolute paths,
// inner `//`) checks that the compiled query, the plan-less parsed AST
// and the naive axis scans answer byte-identically on Boethius,
// synthetic manuscripts, an imported TEI document and an edited GODDAG
// with rolled-back (detached) slots and a patched SnapshotIndex; and
// that each query's leading step was rewritten exactly when the rule
// allows it.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "edit/session.h"
#include "goddag/snapshot_index.h"
#include "ingest/ingest.h"
#include "sacx/goddag_handler.h"
#include "test_util.h"
#include "workload/generator.h"
#include "xpath/compiled.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xquery/xquery.h"

namespace cxml {
namespace {

using goddag::NodeId;
using goddag::SnapshotIndex;
using xpath::AxisKind;

// ------------------------------------------------------------ rendering

/// Byte-exact rendering of an evaluation: node identities and string
/// values for node-sets, the typed value otherwise, the message on
/// error.
std::string Render(const goddag::Goddag& g, const Result<xpath::Value>& v) {
  if (!v.ok()) return "error: " + std::string(v.status().message());
  std::ostringstream out;
  if (v->is_node_set()) {
    for (const xpath::NodeEntry& e : v->nodes()) {
      out << e.node << '@' << e.attr << '='
          << xpath::Value::StringValue(g, e) << '\n';
    }
  } else {
    out << static_cast<int>(v->type()) << ':' << v->ToString(g);
  }
  return out.str();
}

/// Variables every evaluator binds, so `$k`-style predicates (the ones
/// XQuery bindings produce) evaluate on both sides. `$in<i>` holds the
/// non-root elements of the i-th hierarchy: the context sets of the
/// relative `$in<i>//T` forms.
void BindVariables(xpath::Evaluator* ev,
                   const std::vector<xpath::Value>& hierarchy_nodes) {
  ev->SetVariable("k", xpath::Value(2.0));
  ev->SetVariable("flag", xpath::Value(true));
  ev->SetVariable("name", xpath::Value(std::string("se")));
  for (size_t i = 0; i < hierarchy_nodes.size(); ++i) {
    ev->SetVariable("in" + std::to_string(i), hierarchy_nodes[i]);
  }
}

// ------------------------------------------------------------ generator

/// Element tags, hierarchy names and attribute names of a document.
struct Vocabulary {
  std::vector<std::string> tags;
  std::vector<std::string> hierarchies;
  std::vector<std::string> attributes;
};

Vocabulary VocabularyOf(const goddag::Goddag& g) {
  std::set<std::string> tags;
  std::set<std::string> attributes;
  // Prefixed names (xml:id, frag:ab) are not valid XPath names here.
  auto usable = [](const std::string& name) {
    return name.find(':') == std::string::npos;
  };
  for (NodeId e : g.AllElements()) {
    if (usable(g.tag(e))) tags.insert(g.tag(e));
    for (const auto& attr : g.attributes(e)) {
      if (usable(attr.name)) attributes.insert(attr.name);
    }
  }
  Vocabulary v;
  v.tags.assign(tags.begin(), tags.end());
  v.tags.push_back("absent");  // a test no pool answers
  v.attributes.assign(attributes.begin(), attributes.end());
  v.attributes.push_back("absent");
  for (goddag::HierarchyId h = 0; h < g.num_hierarchies(); ++h) {
    const std::string& name = g.cmh()->hierarchy(h).name;
    if (usable(name)) v.hierarchies.push_back(name);
  }
  return v;
}

struct GeneratedQuery {
  std::string text;
  /// The leading `//` step must have been rewritten.
  bool rewritten = false;
};

/// Seeded generator of leading-`//` queries.
class QueryGenerator {
 public:
  QueryGenerator(const Vocabulary& vocab, uint64_t seed)
      : vocab_(vocab), rng_(seed) {}

  GeneratedQuery Next() {
    GeneratedQuery q;
    bool rewritable = true;
    std::string head = "//";
    switch (Below(12)) {
      case 0:
        // A relative `//` after a filter's primary is never rewritten:
        // from an element it walks the tree children of everything
        // inside it, which misses elements whose parent crosses it.
        head = "$in" + std::to_string(Below(vocab_.hierarchies.size())) +
               "//" + NameTest();
        rewritable = false;
        break;
      case 1:
        // text()/node()/attribute tests are never rewritten.
        head += Pick({"text()", "node()", "@" + Pick(vocab_.attributes)});
        rewritable = false;
        break;
      case 2:
      case 3:
        head += "child(" + Pick(vocab_.hierarchies) + ")::" + NameTest();
        break;
      case 4:
        // The spelled-out expansion is rewritten like `//`; with a
        // hierarchy qualifier or a predicate on it, it is not.
        switch (Below(3)) {
          case 0:
            head = "/descendant-or-self::node()/child::" + NameTest();
            break;
          case 1:
            head = "/descendant-or-self(" + Pick(vocab_.hierarchies) +
                   ")::node()/child::" + NameTest();
            rewritable = false;
            break;
          default:
            head = "/descendant-or-self::node()[" + SafePredicate(1) +
                   "]/child::" + NameTest();
            rewritable = false;
            break;
        }
        break;
      default:
        head += NameTest();
        break;
    }
    const size_t predicates = Below(3);
    for (size_t i = 0; i < predicates; ++i) {
      if (Below(4) == 0) {
        head += "[" + UnsafePredicate() + "]";
        rewritable = false;
      } else {
        head += "[" + SafePredicate(2) + "]";
      }
    }
    switch (Below(6)) {
      case 0:
        head += "/descendant::" + NameTest();
        break;
      case 1:
        head += "//" + NameTest();  // inner `//`: never rewritten
        break;
      case 2:
        head += "/ancestor::*";
        break;
      case 3:
        head += "/overlapping::" + NameTest();
        break;
      default:
        break;
    }
    switch (Below(5)) {
      case 0:
      case 1:
        q.text = "count(" + head + ")";
        break;
      case 2:
        q.text = "(" + head + ")[last()]";
        break;
      default:
        q.text = head;
        break;
    }
    q.rewritten = rewritable;
    return q;
  }

 private:
  size_t Below(size_t n) { return rng_() % n; }

  std::string Pick(const std::vector<std::string>& options) {
    return options[Below(options.size())];
  }

  std::string NameTest() {
    return Below(4) == 0 ? "*" : Pick(vocab_.tags);
  }

  std::string Number() { return std::to_string(Below(4)); }

  /// A relative location path (a node-set predicate).
  std::string RelativePath() {
    switch (Below(8)) {
      case 0:
        return "overlapping::" + NameTest();
      case 1:
        return "overlapping(" + Pick(vocab_.hierarchies) + ")::*";
      case 2:
        return "descendant::" + NameTest();
      case 3:
        return "ancestor(" + Pick(vocab_.hierarchies) + ")::*";
      case 4:
        return "@" + Pick(vocab_.attributes);
      case 5:
        return "following-sibling::*";
      case 6:
        // A numeric predicate one level down filters the inner step
        // only; the outer predicate is still a node-set.
        return "descendant::" + NameTest() + "[1]";
      default:
        return "preceding::" + NameTest();
    }
  }

  /// A statically boolean-typed predicate free of position()/last().
  std::string SafePredicate(int depth) {
    switch (Below(depth > 0 ? 13 : 10)) {
      case 0:
        return "string-length(string(.)) > " + Number();
      case 1:
        return "@" + Pick(vocab_.attributes) + " = '" +
               std::to_string(1 + Below(2)) + "'";
      case 2:
        return "count(descendant::" + NameTest() + ") >= " + Number();
      case 3:
        return Pick({"overlap-degree(.) > 0", ". = $name", "$k < 3",
                     ". != ''"});
      case 4:
      case 5:
        return RelativePath();
      case 6:
        // Nested absolute paths are rewritten too.
        return Pick({"//" + NameTest(), "count(//" + NameTest() +
                                            ") > " + Number()});
      case 7:
        return RelativePath() + " | " + RelativePath();
      case 8:
        return Pick({"'x'", "''", "true()", "false()"});
      case 9:
        return Pick({"contains(string(.), 'e')",
                     "starts-with(string(.), 'a')"});
      case 10:
        return Pick({"not(", "boolean("}) + SafePredicate(depth - 1) + ")";
      default:
        return "(" + SafePredicate(depth - 1) +
               Pick({" and ", " or "}) + SafePredicate(depth - 1) + ")";
    }
  }

  /// A predicate the rewrite must leave alone: positional, numeric,
  /// variable, or reading position()/last() anywhere.
  std::string UnsafePredicate() {
    switch (Below(8)) {
      case 0:
        return std::to_string(1 + Below(4));
      case 1:
        return "position() <= " + Number();
      case 2:
        return "last()";
      case 3:
        return Pick({"count(" + NameTest() + ")", "count(descendant::*)",
                     "string-length(string(.))"});
      case 4:
        return Pick({"$k", "$flag", "$name"});
      case 5:
        // Boolean-typed, but reads the position.
        return Pick({"not(position() = 1)", "position() = last()"});
      case 6:
        // last() nested one level down still blocks the rewrite.
        return "descendant::" + NameTest() + "[last()]";
      default:
        return "1 + " + Number();
    }
  }

  const Vocabulary& vocab_;
  std::mt19937_64 rng_;
};

// ---------------------------------------------------------- differential

/// The outermost location path of a generated query: unwraps the
/// count(...) call or the (...)[last()] filter, and stops at the
/// trailing path of `$in<i>//T`.
const xpath::LocationPath& LeadingPath(const xpath::Expr& expr) {
  if (expr.kind == xpath::Expr::Kind::kPath || !expr.path.steps.empty()) {
    return expr.path;
  }
  return LeadingPath(*expr.children[0]);
}

/// Compiled (indexed and naive) vs plan-less parsed AST (indexed and
/// naive): byte-identical on every generated query, and the leading
/// step rewritten exactly when the generator says the rule applies.
void ExpectRewriteSound(const goddag::Goddag& g,
                        std::shared_ptr<const SnapshotIndex> index,
                        uint64_t seed, size_t queries) {
  xpath::Evaluator compiled_indexed(g);
  compiled_indexed.SetSnapshotIndex(index);
  xpath::Evaluator compiled_naive(g);
  compiled_naive.SetAxisStrategy(xpath::AxisStrategy::kNaiveScan);
  xpath::Evaluator planless_indexed(g);
  planless_indexed.SetSnapshotIndex(index);
  xpath::Evaluator planless_naive(g);
  planless_naive.SetAxisStrategy(xpath::AxisStrategy::kNaiveScan);
  const Vocabulary vocab = VocabularyOf(g);
  std::vector<xpath::Value> hierarchy_nodes;
  for (const std::string& h : vocab.hierarchies) {
    auto nodes = xpath::ParseXPath("/descendant(" + h + ")::*[parent::*]");
    ASSERT_TRUE(nodes.ok());
    auto node_set = planless_naive.Evaluate(**nodes);
    ASSERT_TRUE(node_set.ok()) << node_set.status();
    hierarchy_nodes.push_back(*std::move(node_set));
  }
  for (xpath::Evaluator* ev : {&compiled_indexed, &compiled_naive,
                               &planless_indexed, &planless_naive}) {
    BindVariables(ev, hierarchy_nodes);
  }

  QueryGenerator gen(vocab, seed);
  size_t rewritten = 0;
  size_t answered = 0;  // non-empty node-set or non-zero value
  for (size_t i = 0; i < queries; ++i) {
    const GeneratedQuery q = gen.Next();
    auto compiled = xpath::Compile(q.text);
    auto parsed = xpath::ParseXPath(q.text);
    ASSERT_TRUE(compiled.ok()) << q.text << ": " << compiled.status();
    ASSERT_TRUE(parsed.ok()) << q.text << ": " << parsed.status();

    const xpath::LocationPath& path = LeadingPath((*compiled)->expr());
    EXPECT_EQ(path.steps.front().axis == AxisKind::kDescendant, q.rewritten)
        << q.text << " compiled to " << (*compiled)->canonical();
    if (q.rewritten) ++rewritten;

    const Result<xpath::Value> oracle = planless_naive.Evaluate(**parsed);
    ASSERT_TRUE(oracle.ok()) << q.text << ": " << oracle.status();
    if (oracle->is_node_set() ? !oracle->nodes().empty()
                              : oracle->ToNumber(g) != 0) {
      ++answered;
    }
    const std::string expected = Render(g, oracle);
    EXPECT_EQ(Render(g, planless_indexed.Evaluate(**parsed)), expected)
        << q.text;
    EXPECT_EQ(Render(g, compiled_indexed.Evaluate((*compiled)->expr())),
              expected)
        << q.text << " compiled to " << (*compiled)->canonical();
    EXPECT_EQ(Render(g, compiled_naive.Evaluate((*compiled)->expr())),
              expected)
        << q.text << " compiled to " << (*compiled)->canonical();
  }
  // Both sides of the rule must actually have been exercised, on
  // queries a good share of which select something.
  EXPECT_GT(rewritten, queries / 4);
  EXPECT_LT(rewritten, queries);
  EXPECT_GT(answered, queries / 4);
}

constexpr size_t kQueriesPerDocument = 160;

TEST(LeadingDescendantRewrite, Boethius) {
  auto fixture = testing::BoethiusFixture::Make();
  ExpectRewriteSound(*fixture.g,
                     std::make_shared<const SnapshotIndex>(*fixture.g), 17,
                     kQueriesPerDocument);
}

struct ManuscriptConfig {
  size_t content_chars;
  size_t extra_hierarchies;
  double density;
  uint64_t seed;
};

void PrintTo(const ManuscriptConfig& c, std::ostream* os) {
  *os << "chars=" << c.content_chars << " extra=" << c.extra_hierarchies
      << " density=" << c.density << " seed=" << c.seed;
}

class LeadingDescendantRewriteSynthetic
    : public ::testing::TestWithParam<ManuscriptConfig> {};

TEST_P(LeadingDescendantRewriteSynthetic, CompiledMatchesPlanlessAndNaive) {
  const ManuscriptConfig& config = GetParam();
  workload::GeneratorParams params;
  params.content_chars = config.content_chars;
  params.extra_hierarchies = config.extra_hierarchies;
  params.annotation_density = config.density;
  params.seed = config.seed;
  auto corpus = workload::GenerateManuscript(params);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  auto g = sacx::ParseToGoddag(*corpus->cmh, corpus->SourceViews());
  ASSERT_TRUE(g.ok()) << g.status();
  ExpectRewriteSound(*g, std::make_shared<const SnapshotIndex>(*g),
                     config.seed, kQueriesPerDocument);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LeadingDescendantRewriteSynthetic,
    ::testing::Values(ManuscriptConfig{500, 0, 4.0, 11},
                      ManuscriptConfig{1'500, 2, 8.0, 12},
                      ManuscriptConfig{2'000, 3, 16.0, 14}));

TEST(LeadingDescendantRewrite, ImportedTei) {
  std::ifstream in(std::string(CXML_TEST_FIXTURES_DIR) +
                   "/overlap_sample.tei");
  ASSERT_TRUE(in.good());
  std::stringstream source;
  source << in.rdbuf();
  auto imported = ingest::Import(source.str());
  ASSERT_TRUE(imported.ok()) << imported.status();
  const goddag::Goddag& g = *imported->doc.g;
  ExpectRewriteSound(g, std::make_shared<const SnapshotIndex>(g), 23,
                     kQueriesPerDocument);
}

TEST(LeadingDescendantRewrite, EditedGoddagWithPatchedIndex) {
  auto fixture = testing::BoethiusFixture::Make();
  auto prev_index = std::make_shared<const SnapshotIndex>(*fixture.g);
  goddag::Goddag clone = fixture.g->Clone(fixture.corpus.cmh.get());
  auto session = edit::EditSession::Start(&clone);
  ASSERT_TRUE(session.ok()) << session.status();
  const goddag::HierarchyId damage =
      fixture.corpus.cmh->FindIdByName("damage");
  const goddag::HierarchyId restoration =
      fixture.corpus.cmh->FindIdByName("restoration");

  // Kept edits, then edits rolled back to a mark: their arena slots
  // stay behind, detached.
  ASSERT_TRUE(session->SelectText("se Wisdom").ok());
  ASSERT_TRUE(session->Apply(damage, "dmg").ok());
  const edit::EditSession::Mark mark = session->MarkState();
  ASSERT_TRUE(session->SelectText("asungen").ok());
  ASSERT_TRUE(session->Apply(damage, "dmg").ok());
  ASSERT_TRUE(session->SelectText("ongan he eft").ok());
  ASSERT_TRUE(session->Apply(restoration, "res").ok());
  ASSERT_TRUE(session->RollbackTo(mark).ok());
  ASSERT_TRUE(session->SelectText("seggan").ok());
  ASSERT_TRUE(session->Apply(restoration, "res").ok());

  auto patched =
      SnapshotIndex::Patch(*prev_index, clone, session->index_delta());
  ASSERT_NE(patched, nullptr) << "patch unexpectedly declined";
  size_t detached = 0;
  for (NodeId id = 0; id < clone.arena_size(); ++id) {
    if (patched->rank(id) == SnapshotIndex::kUnranked) ++detached;
  }
  ASSERT_GT(detached, 0u) << "rollback left no detached slots";
  ExpectRewriteSound(clone, patched, 29, kQueriesPerDocument);
}

// ------------------------------------------------------- pinned shapes

/// Renders the steps of a compiled path as axis names.
std::vector<AxisKind> Axes(const char* query) {
  auto compiled = xpath::Compile(query);
  EXPECT_TRUE(compiled.ok()) << query;
  std::vector<AxisKind> axes;
  if (!compiled.ok()) return axes;
  for (const xpath::Step& step : LeadingPath((*compiled)->expr()).steps) {
    axes.push_back(step.axis);
  }
  return axes;
}

TEST(LeadingDescendantRewrite, PinnedNegativesKeepTheirShape) {
  const std::vector<AxisKind> unrewritten = {AxisKind::kDescendantOrSelf,
                                             AxisKind::kChild};
  // Positional and numeric predicates select per parent window.
  EXPECT_EQ(Axes("//line[9]"), unrewritten);
  EXPECT_EQ(Axes("//s[position() <= 3]"), unrewritten);
  EXPECT_EQ(Axes("//w[count(w)]"), unrewritten);
  EXPECT_EQ(Axes("//w[last()]"), unrewritten);
  EXPECT_EQ(Axes("//w[$k]"), unrewritten);
  EXPECT_EQ(Axes("//text()"), unrewritten);
  EXPECT_EQ(Axes("//node()"), unrewritten);
  // Only the leading `//` of `//a//b` is rewritten; the inner one
  // starts from every a, not from the document.
  EXPECT_EQ(Axes("//a//b"),
            (std::vector<AxisKind>{AxisKind::kDescendant,
                                   AxisKind::kDescendantOrSelf,
                                   AxisKind::kChild}));
  // Relative paths and filter trailers are never rewritten.
  auto relative = xpath::Compile("$l//w");
  ASSERT_TRUE(relative.ok());
  EXPECT_EQ((*relative)->expr().path.steps.front().axis,
            AxisKind::kDescendantOrSelf);
}

TEST(LeadingDescendantRewrite, PinnedPositivesShareTheirTwinsIdentity) {
  const std::pair<const char*, const char*> twins[] = {
      {"//w", "/descendant::w"},
      {"//*", "/descendant::*"},
      {"//child(linguistic)::w", "/descendant(linguistic)::w"},
      {"//w[overlapping::line and not(@x)]",
       "/descendant::w[overlapping::line and not(@x)]"},
      {"count(//line[. = $name])", "count(/descendant::line[. = $name])"},
      // Nested absolute paths inside predicates are rewritten too.
      {"//line[//w]", "/descendant::line[/descendant::w]"},
  };
  for (const auto& [abbreviated, twin] : twins) {
    auto a = xpath::Compile(abbreviated);
    auto b = xpath::Compile(twin);
    ASSERT_TRUE(a.ok() && b.ok()) << abbreviated;
    EXPECT_EQ((*a)->canonical(), (*b)->canonical()) << abbreviated;
  }
}

// ------------------------------------------------------------- XQuery

/// FLWOR bodies go through the same analysis (xquery::CompileEmbedded):
/// `$var` predicates keep their shape, boolean ones are rewritten, and
/// the indexed and naive engines agree on both.
TEST(LeadingDescendantRewrite, XQueryEmbeddedExpressions) {
  auto fixture = testing::BoethiusFixture::Make();
  const goddag::Goddag& g = *fixture.g;
  xquery::XQueryEngine indexed(g);
  indexed.UseSnapshotIndex(std::make_shared<const SnapshotIndex>(g));
  xquery::XQueryEngine naive(g);
  naive.SetAxisStrategy(xpath::AxisStrategy::kNaiveScan);

  struct Case {
    const char* query;
    const char* canonical_fragment;
  };
  const Case cases[] = {
      {"let $k := 2 return {count(//w[$k])}",
       "descendant-or-self::node()/child::w[$k]"},
      {"for $l in //line return {count(//w[$l])}",
       "descendant-or-self::node()/child::w[$l]"},
      {"for $s in //s return {count($s//w)}",
       "descendant-or-self::node()/child::w"},
      {"for $w in //w[overlapping::line] return {string($w)}",
       "/descendant::w[overlapping::line]"},
      {"for $l in //line let $t := string($l) "
       "return {count(//w[contains($t, string(.))])}",
       "/descendant::w[contains($t,string(self::node()))]"},
  };
  for (const Case& c : cases) {
    auto compiled = xquery::Compile(c.query);
    ASSERT_TRUE(compiled.ok()) << c.query << ": " << compiled.status();
    EXPECT_NE((*compiled)->canonical().find(c.canonical_fragment),
              std::string::npos)
        << c.query << " compiled to " << (*compiled)->canonical();
    auto a = indexed.Run(**compiled);
    auto b = naive.Run(**compiled);
    ASSERT_TRUE(a.ok()) << c.query << ": " << a.status();
    ASSERT_TRUE(b.ok()) << c.query << ": " << b.status();
    EXPECT_EQ(*a, *b) << c.query;
  }
}

}  // namespace
}  // namespace cxml
