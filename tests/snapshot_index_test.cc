// goddag::SnapshotIndex and the indexed Extended XPath axes: the
// indexed strategy must return byte-identical results to the naive
// full scans (the equivalence oracle kept compile-time available via
// xpath::AxisStrategy::kNaiveScan), on the hand-built Boethius corpus
// and across randomized synthetic manuscripts; plus the pinned
// following/preceding equal-extent semantics, the engine parse-cache
// LRU bound, and the snapshot-resident memoization in the service
// layer.

#include "goddag/snapshot_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "sacx/goddag_handler.h"
#include "service/document_store.h"
#include "storage/binary.h"
#include "test_util.h"
#include "workload/generator.h"
#include "xpath/engine.h"
#include "xquery/xquery.h"

namespace cxml {
namespace {

using goddag::NodeId;
using goddag::SnapshotIndex;

// The equivalence sweep (absolute + relative queries) now lives in
// test_util.h, shared with prepared_query_test's string-vs-prepared
// sweep.
using testing::kSweepAbsoluteQueries;
using testing::kSweepRelativeQueries;

/// Asserts the two strategies agree on every query, absolute and
/// relative (the relative ones from several elements and a leaf).
void ExpectStrategiesAgree(const goddag::Goddag& g) {
  xpath::XPathEngine indexed(g);
  // Shared prebuilt index, as the service layer would inject it.
  indexed.UseSnapshotIndex(std::make_shared<const SnapshotIndex>(g));
  xpath::XPathEngine naive(g);
  naive.SetAxisStrategy(xpath::AxisStrategy::kNaiveScan);

  for (const char* query : kSweepAbsoluteQueries) {
    auto a = indexed.EvaluateToStrings(query);
    auto b = naive.EvaluateToStrings(query);
    ASSERT_TRUE(a.ok()) << query << ": " << a.status();
    ASSERT_TRUE(b.ok()) << query << ": " << b.status();
    EXPECT_EQ(*a, *b) << query;
  }

  std::vector<NodeId> contexts;
  std::vector<NodeId> words = g.ElementsByTag("w");
  for (size_t i = 0; i < words.size(); i += words.size() / 5 + 1) {
    contexts.push_back(words[i]);
  }
  std::vector<NodeId> lines = g.ElementsByTag("line");
  if (!lines.empty()) contexts.push_back(lines[lines.size() / 2]);
  if (g.num_leaves() > 1) contexts.push_back(g.leaf_at(1));
  for (NodeId ctx : contexts) {
    for (const char* query : kSweepRelativeQueries) {
      auto va = indexed.EvaluateFrom(query, ctx);
      auto vb = naive.EvaluateFrom(query, ctx);
      ASSERT_TRUE(va.ok()) << query << ": " << va.status();
      ASSERT_TRUE(vb.ok()) << query << ": " << vb.status();
      if (va->is_node_set()) {
        ASSERT_TRUE(vb->is_node_set()) << query;
        EXPECT_EQ(va->nodes(), vb->nodes()) << query << " from node " << ctx;
      } else {
        EXPECT_EQ(va->ToString(g), vb->ToString(g)) << query;
      }
    }
  }
}

TEST(SnapshotIndexEquivalence, Boethius) {
  auto fixture = testing::BoethiusFixture::Make();
  ExpectStrategiesAgree(*fixture.g);
}

struct Config {
  size_t content_chars;
  size_t extra_hierarchies;
  double density;
  uint64_t seed;
};

void PrintTo(const Config& c, std::ostream* os) {
  *os << "chars=" << c.content_chars << " extra=" << c.extra_hierarchies
      << " density=" << c.density << " seed=" << c.seed;
}

class SnapshotIndexPropertyTest : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    const Config& config = GetParam();
    workload::GeneratorParams params;
    params.content_chars = config.content_chars;
    params.extra_hierarchies = config.extra_hierarchies;
    params.annotation_density = config.density;
    params.seed = config.seed;
    auto corpus = workload::GenerateManuscript(params);
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    corpus_ = std::make_unique<workload::SyntheticCorpus>(
        std::move(corpus).value());
    auto g = sacx::ParseToGoddag(*corpus_->cmh, corpus_->SourceViews());
    ASSERT_TRUE(g.ok()) << g.status();
    g_ = std::make_unique<goddag::Goddag>(std::move(g).value());
  }

  std::unique_ptr<workload::SyntheticCorpus> corpus_;
  std::unique_ptr<goddag::Goddag> g_;
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, SnapshotIndexPropertyTest,
    ::testing::Values(Config{500, 0, 4.0, 11}, Config{500, 2, 8.0, 12},
                      Config{2'000, 1, 2.0, 13},
                      Config{2'000, 3, 16.0, 14},
                      Config{4'000, 2, 32.0, 15}));

// P-IDX1: indexed axes == naive axes on every corpus shape.
TEST_P(SnapshotIndexPropertyTest, IndexedAxesMatchNaiveScans) {
  ExpectStrategiesAgree(*g_);
}

// The manuscript size the global-axis queries are quoted at (20,000
// characters, 2 extra hierarchies — where //line//w gives 135
// answers): the indexed engine must count exactly like the naive scans
// on the descendant, ancestor and overlapping shapes, and must have
// answered every global axis from the pools.
TEST(SnapshotIndexEquivalence, Manuscript20kGlobalAxes) {
  workload::GeneratorParams params;
  params.content_chars = 20'000;
  params.extra_hierarchies = 2;
  auto corpus = workload::GenerateManuscript(params);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  auto g = sacx::ParseToGoddag(*corpus->cmh, corpus->SourceViews());
  ASSERT_TRUE(g.ok()) << g.status();

  xpath::XPathEngine indexed(*g);
  indexed.UseSnapshotIndex(std::make_shared<const SnapshotIndex>(*g));
  xpath::XPathEngine naive(*g);
  naive.SetAxisStrategy(xpath::AxisStrategy::kNaiveScan);
  // //line//w reaches a w only as the child of a node some line
  // dominates (w and line live in different hierarchies, so just 135
  // qualify); //line/descendant::w scans each line's window of the w
  // pool directly.
  for (const char* query :
       {"count(//line//w)", "count(//line/descendant::w)",
        "count(//w/ancestor::line)", "count(//w[overlapping::line])"}) {
    auto a = indexed.Evaluate(query);
    auto b = naive.Evaluate(query);
    ASSERT_TRUE(a.ok()) << query << ": " << a.status();
    ASSERT_TRUE(b.ok()) << query << ": " << b.status();
    EXPECT_GT(a->ToNumber(*g), 0) << query;
    EXPECT_EQ(a->ToNumber(*g), b->ToNumber(*g)) << query;
  }
  EXPECT_EQ(indexed.axis_stats().naive_axes, 0u);
  EXPECT_GT(indexed.axis_stats().indexed_axes, 0u);
}

// P-IDX2: the O(1) relations agree with their definitions on random
// node pairs — rank order vs Goddag::Before, Dominates vs the naive
// containment + tree-ancestor disambiguation.
TEST_P(SnapshotIndexPropertyTest, RelationsMatchBruteForce) {
  SnapshotIndex index(*g_);
  std::vector<NodeId> nodes = g_->AllElements();
  nodes.push_back(g_->root());
  nodes.insert(nodes.end(), g_->leaves().begin(), g_->leaves().end());

  auto naive_tree_ancestor = [&](NodeId anc, NodeId node) {
    std::vector<NodeId> frontier;
    if (g_->is_leaf(node)) {
      for (cmh::HierarchyId h = 0; h < g_->num_hierarchies(); ++h) {
        frontier.push_back(g_->leaf_parent(node, h));
      }
    } else if (g_->is_element(node)) {
      frontier.push_back(g_->parent(node));
    }
    while (!frontier.empty()) {
      NodeId n = frontier.back();
      frontier.pop_back();
      if (n == goddag::kInvalidNode) continue;
      if (n == anc) return true;
      if (g_->is_element(n)) frontier.push_back(g_->parent(n));
    }
    return false;
  };
  auto naive_dominates = [&](NodeId outer, NodeId inner) {
    if (outer == inner) return false;
    Interval o = g_->char_range(outer);
    Interval i = g_->char_range(inner);
    if (!o.Contains(i)) return false;
    if (o == i) return naive_tree_ancestor(outer, inner);
    return true;
  };

  std::mt19937_64 rng(GetParam().seed * 7919);
  std::uniform_int_distribution<size_t> pick(0, nodes.size() - 1);
  for (int probe = 0; probe < 300; ++probe) {
    NodeId a = nodes[pick(rng)];
    NodeId b = nodes[pick(rng)];
    EXPECT_EQ(index.Before(a, b), g_->Before(a, b)) << a << " vs " << b;
    EXPECT_EQ(index.Dominates(a, b), naive_dominates(a, b))
        << a << " vs " << b;
  }
  EXPECT_EQ(index.num_ranked(), nodes.size());
}

// P-IDX3: every node's rank is unique and SortDocumentOrder matches
// Goddag::SortDocumentOrder.
TEST_P(SnapshotIndexPropertyTest, RankSortMatchesStructuralSort) {
  SnapshotIndex index(*g_);
  std::vector<NodeId> a = g_->AllElements();
  a.insert(a.end(), g_->leaves().begin(), g_->leaves().end());
  std::mt19937_64 rng(GetParam().seed * 104729);
  std::shuffle(a.begin(), a.end(), rng);
  std::vector<NodeId> b = a;
  index.SortDocumentOrder(&a);
  g_->SortDocumentOrder(&b);
  EXPECT_EQ(a, b);
}

// The pinned following/preceding semantics: equal-extent nodes (only
// possible between zero-width milestones at the same position) are
// neither following nor preceding each other — same rule for elements
// and leaves, indexed and naive alike.
TEST(SnapshotIndexRegression, ZeroWidthTwinsAreNotFollowingOrPreceding) {
  goddag::Goddag g("abcdef", 1);
  auto outer = g.InsertElement(0, "outer", {}, Interval(2, 4));
  ASSERT_TRUE(outer.ok()) << outer.status();
  auto inner = g.InsertElement(0, "inner", {}, Interval(2, 4));
  ASSERT_TRUE(inner.ok()) << inner.status();
  auto after = g.InsertElement(0, "after", {}, Interval(5, 6));
  ASSERT_TRUE(after.ok()) << after.status();
  // Deleting the covered text leaves <outer> and <inner> as zero-width
  // milestones sharing the extent [2,2).
  ASSERT_TRUE(g.DeleteText(Interval(2, 4)).ok());
  ASSERT_TRUE(g.Validate().ok()) << g.Validate();
  ASSERT_EQ(g.char_range(*outer), g.char_range(*inner));
  ASSERT_TRUE(g.char_range(*outer).empty());

  for (auto strategy :
       {xpath::AxisStrategy::kIndexed, xpath::AxisStrategy::kNaiveScan}) {
    xpath::XPathEngine engine(g);
    engine.SetAxisStrategy(strategy);
    const char* label = strategy == xpath::AxisStrategy::kIndexed
                            ? "indexed"
                            : "naive";
    // The co-extensive twin is invisible to following/preceding...
    auto f = engine.EvaluateFrom("count(following::inner)", *outer);
    ASSERT_TRUE(f.ok()) << f.status();
    EXPECT_EQ(f->ToNumber(g), 0) << label;
    auto p = engine.EvaluateFrom("count(preceding::outer)", *inner);
    ASSERT_TRUE(p.ok()) << p.status();
    EXPECT_EQ(p->ToNumber(g), 0) << label;
    // ...while genuinely later markup still follows the milestone.
    auto later = engine.EvaluateFrom("count(following::after)", *outer);
    ASSERT_TRUE(later.ok()) << later.status();
    EXPECT_EQ(later->ToNumber(g), 1) << label;
    auto before = engine.EvaluateFrom("count(preceding::outer)", *after);
    ASSERT_TRUE(before.ok()) << before.status();
    EXPECT_EQ(before->ToNumber(g), 1) << label;
    // The zero-width pair still disambiguates descendant/ancestor via
    // tree ancestorship (outer was inserted first, so it dominates).
    auto anc = engine.EvaluateFrom("count(ancestor::outer)", *inner);
    ASSERT_TRUE(anc.ok()) << anc.status();
    EXPECT_EQ(anc->ToNumber(g), 1) << label;
    auto desc = engine.EvaluateFrom("count(descendant::inner)", *outer);
    ASSERT_TRUE(desc.ok()) << desc.status();
    EXPECT_EQ(desc->ToNumber(g), 1) << label;
  }
}

// The engine's parse cache is a bounded LRU now that engines live as
// long as a snapshot: distinct expressions evict the oldest, reuse
// promotes, and evicted expressions still re-parse correctly.
TEST(XPathEngineParseCache, LruBound) {
  auto fixture = testing::BoethiusFixture::Make();
  xpath::XPathEngine engine(*fixture.g, /*parse_cache_capacity=*/4);
  EXPECT_EQ(engine.parse_cache_capacity(), 4u);
  auto count = [&](const std::string& expr) {
    auto v = engine.Evaluate(expr);
    EXPECT_TRUE(v.ok()) << v.status();
    return v.ok() ? v->ToNumber(*fixture.g) : -1.0;
  };
  double words = count("count(//w)");
  EXPECT_GT(words, 0);
  for (int i = 0; i < 10; ++i) {
    count("count(//w) + " + std::to_string(i));
    EXPECT_LE(engine.cache_size(), 4u);
  }
  EXPECT_EQ(engine.cache_size(), 4u);
  // Evicted long ago, still correct on re-parse.
  EXPECT_EQ(count("count(//w)"), words);
  EXPECT_EQ(engine.cache_size(), 4u);
}

TEST(XPathEngineParseCache, CapacityZeroClampsToOne) {
  auto fixture = testing::BoethiusFixture::Make();
  xpath::XPathEngine engine(*fixture.g, /*parse_cache_capacity=*/0);
  EXPECT_EQ(engine.parse_cache_capacity(), 1u);
  EXPECT_TRUE(engine.Evaluate("count(//w)").ok());
  EXPECT_TRUE(engine.Evaluate("count(//line)").ok());
  EXPECT_EQ(engine.cache_size(), 1u);
}

// DocumentSnapshot memoizes one index + engine pair per published
// version: repeated accessors return the same objects, and a new
// version gets fresh ones.
TEST(DocumentSnapshotMemo, OneIndexAndEnginePairPerVersion) {
  workload::GeneratorParams params;
  params.content_chars = 600;
  auto corpus = workload::GenerateManuscript(params);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  auto g = sacx::ParseToGoddag(*corpus->cmh, corpus->SourceViews());
  ASSERT_TRUE(g.ok()) << g.status();
  auto bytes = storage::Save(*g);
  ASSERT_TRUE(bytes.ok()) << bytes.status();

  service::DocumentStore store;
  ASSERT_TRUE(store.RegisterBytes("doc", *bytes).ok());
  auto snap = store.GetSnapshot("doc");
  ASSERT_TRUE(snap.ok());

  const SnapshotIndex* index = &(*snap)->Index();
  EXPECT_EQ(index, &(*snap)->Index());
  EXPECT_EQ((*snap)->IndexPtr().get(), index);
  xpath::XPathEngine* xp = &(*snap)->XPath();
  EXPECT_EQ(xp, &(*snap)->XPath());
  xquery::XQueryEngine* xq = &(*snap)->XQuery();
  EXPECT_EQ(xq, &(*snap)->XQuery());
  auto v = xp->Evaluate("count(//w)");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_GT(v->ToNumber(*(*snap)->goddag), 0);

  // Publish a new version; its snapshot memoizes its own state.
  auto txn = store.BeginEdit("doc");
  ASSERT_TRUE(txn.ok()) << txn.status();
  ASSERT_TRUE(txn->session().Select(Interval(10, 30)).ok());
  ASSERT_TRUE(txn->session().Apply(2, "a0").ok());
  ASSERT_TRUE(txn->Commit().ok());
  auto snap2 = store.GetSnapshot("doc");
  ASSERT_TRUE(snap2.ok());
  ASSERT_NE((*snap2).get(), (*snap).get());
  EXPECT_NE(&(*snap2)->Index(), index);
  // The successor's first cold index patched the predecessor's copy
  // instead of rebuilding from scratch (the commit carried a delta).
  EXPECT_TRUE((*snap2)->index_patched());
  // Publishing superseded the old snapshot: with no in-flight batch
  // pinning it, its memoized index/engines were released (bounded
  // snapshot-resident memory). It still answers correctly — accessors
  // lazily rebuild — but pointer identity across a supersede is no
  // longer part of the contract.
  EXPECT_FALSE((*snap)->IndexReady());
  auto old_v = (*snap)->XPath().Evaluate("count(//w)");
  ASSERT_TRUE(old_v.ok()) << old_v.status();
  EXPECT_EQ(old_v->ToNumber(*(*snap)->goddag),
            v->ToNumber(*(*snap)->goddag));
  // Once rebuilt, memoization holds again for this holder.
  const SnapshotIndex* rebuilt = &(*snap)->Index();
  EXPECT_EQ(rebuilt, &(*snap)->Index());
}

// A batch that pinned the predecessor's accel state keeps it alive
// across a publish; the release happens when the last pin drops.
TEST(DocumentSnapshotMemo, AccelPinDefersReleaseAcrossPublish) {
  workload::GeneratorParams params;
  params.content_chars = 600;
  auto corpus = workload::GenerateManuscript(params);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  auto g = sacx::ParseToGoddag(*corpus->cmh, corpus->SourceViews());
  ASSERT_TRUE(g.ok()) << g.status();
  auto bytes = storage::Save(*g);
  ASSERT_TRUE(bytes.ok()) << bytes.status();

  service::DocumentStore store;
  ASSERT_TRUE(store.RegisterBytes("doc", *bytes).ok());
  auto snap = store.GetSnapshot("doc");
  ASSERT_TRUE(snap.ok());

  const SnapshotIndex* index = &(*snap)->Index();
  {
    auto pin = (*snap)->PinAccel();
    auto txn = store.BeginEdit("doc");
    ASSERT_TRUE(txn.ok()) << txn.status();
    ASSERT_TRUE(txn->session().Select(Interval(10, 30)).ok());
    ASSERT_TRUE(txn->session().Apply(2, "a0").ok());
    ASSERT_TRUE(txn->Commit().ok());
    // Superseded but pinned: the memoized index survives, with
    // pointer identity, until the pin drops.
    EXPECT_TRUE((*snap)->IndexReady());
    EXPECT_EQ(&(*snap)->Index(), index);
  }
  // Last pin dropped after the supersede: accel state is gone.
  EXPECT_FALSE((*snap)->IndexReady());
}

}  // namespace
}  // namespace cxml
