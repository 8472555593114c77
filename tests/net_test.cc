#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "goddag/builder.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "service/document_store.h"
#include "service/query_service.h"
#include "storage/binary.h"
#include "workload/generator.h"

namespace cxml::net {
namespace {

// ------------------------------------------------------------- framing

TEST(FrameTest, RoundTripsPayloads) {
  FrameDecoder decoder;
  std::string wire = EncodeFrame("PING");
  AppendFrame(&wire, "");
  AppendFrame(&wire, std::string("binary\0bytes\nhere", 17));

  ASSERT_TRUE(decoder.Feed(wire).ok());
  std::string payload;
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "PING");
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "");
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, std::string("binary\0bytes\nhere", 17));
  EXPECT_FALSE(decoder.Next(&payload));
}

TEST(FrameTest, ReassemblesByteAtATime) {
  const std::string wire = EncodeFrame("QUERY ms XPATH\ncount(//w)");
  FrameDecoder decoder;
  std::string payload;
  for (size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(decoder.Feed(wire.substr(i, 1)).ok());
    if (i + 1 < wire.size()) {
      EXPECT_FALSE(decoder.HasFrame());
    }
  }
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "QUERY ms XPATH\ncount(//w)");
}

TEST(FrameTest, RejectsMalformedHeaders) {
  {
    FrameDecoder decoder;
    EXPECT_EQ(decoder.Feed("HTTP/1.1 200 OK\n").code(),
              StatusCode::kParseError);
    // The error is sticky: framing is unrecoverable.
    EXPECT_EQ(decoder.Feed(EncodeFrame("PING")).code(),
              StatusCode::kParseError);
  }
  {
    FrameDecoder decoder;
    EXPECT_EQ(decoder.Feed("CXP1 12x\nhello").code(),
              StatusCode::kParseError);
  }
  {
    FrameDecoder decoder(/*max_frame_bytes=*/1024);
    EXPECT_EQ(decoder.Feed("CXP1 2048\n").code(), StatusCode::kParseError);
  }
  {
    FrameDecoder decoder;
    // An endless header (no newline) must not buffer forever.
    EXPECT_EQ(decoder.Feed(std::string(100, 'A')).code(),
              StatusCode::kParseError);
  }
  {
    FrameDecoder decoder;
    // Completed frames survive a later violation.
    std::string wire = EncodeFrame("PING");
    wire += "garbage without structure that overflows the header limit";
    EXPECT_EQ(decoder.Feed(wire).code(), StatusCode::kParseError);
    std::string payload;
    ASSERT_TRUE(decoder.Next(&payload));
    EXPECT_EQ(payload, "PING");
  }
}

// ------------------------------------------------------------ protocol

TEST(ProtocolTest, RequestRoundTrips) {
  Request query;
  query.verb = Verb::kQuery;
  query.document = "ms";
  query.kind = service::QueryKind::kXQuery;
  query.body = "for $w in //w\nreturn {string($w)}";
  auto parsed = ParseRequest(RenderRequest(query));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->verb, Verb::kQuery);
  EXPECT_EQ(parsed->document, "ms");
  EXPECT_EQ(parsed->kind, service::QueryKind::kXQuery);
  EXPECT_EQ(parsed->body, query.body);

  Request edit;
  edit.verb = Verb::kEdit;
  edit.document = "ms";
  edit.ops = {EditOp::Select(10, 50), EditOp::Apply(2, "a0")};
  parsed = ParseRequest(RenderRequest(edit));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->ops.size(), 2u);
  EXPECT_EQ(parsed->ops[0].kind, EditOp::Kind::kSelect);
  EXPECT_EQ(parsed->ops[0].chars, Interval(10, 50));
  EXPECT_EQ(parsed->ops[1].kind, EditOp::Kind::kApply);
  EXPECT_EQ(parsed->ops[1].hierarchy, 2u);
  EXPECT_EQ(parsed->ops[1].tag, "a0");

  Request reg;
  reg.verb = Verb::kRegister;
  reg.document = "up";
  reg.body = std::string("CXG1\0raw\nbinary", 15);
  parsed = ParseRequest(RenderRequest(reg));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->body, reg.body);

  for (Verb verb : {Verb::kList, Verb::kStat, Verb::kMetrics, Verb::kPing,
                    Verb::kEditCommit, Verb::kEditAbort}) {
    Request bare;
    bare.verb = verb;
    parsed = ParseRequest(RenderRequest(bare));
    ASSERT_TRUE(parsed.ok()) << VerbToString(verb);
    EXPECT_EQ(parsed->verb, verb);
  }

  Request trace;
  trace.verb = Verb::kTrace;
  trace.count = 16;
  parsed = ParseRequest(RenderRequest(trace));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->verb, Verb::kTrace);
  EXPECT_EQ(parsed->count, 16u);
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("FROB ms").ok());
  EXPECT_FALSE(ParseRequest("QUERY ms").ok());              // no kind
  EXPECT_FALSE(ParseRequest("QUERY ms SQL\nselect 1").ok());
  EXPECT_FALSE(ParseRequest("QUERY ms XPATH\n").ok());      // no body
  EXPECT_FALSE(ParseRequest("QUERY bad name XPATH\n//w").ok());
  EXPECT_FALSE(ParseRequest("REMOVE").ok());
  EXPECT_FALSE(ParseRequest("EDIT ms\nSELECT 1 2\nAPPLY 2 a0").ok())
      << "EDIT without COMMIT must not parse";
  EXPECT_FALSE(ParseRequest("EDIT ms\nCOMMIT").ok());
  EXPECT_FALSE(ParseRequest("EDIT ms\nSELECT 1\nCOMMIT").ok());
  EXPECT_FALSE(ParseRequest("EDIT ms\nCOMMIT\nSELECT 1 2").ok());
  EXPECT_FALSE(ParseRequest("EOP\nCOMMIT").ok());
  EXPECT_FALSE(ParseRequest("PING extra").ok());
  EXPECT_FALSE(ParseRequest("METRICS extra").ok());
  EXPECT_FALSE(ParseRequest("TRACE").ok());      // count required
  EXPECT_FALSE(ParseRequest("TRACE 0").ok());    // zero is meaningless
  EXPECT_FALSE(ParseRequest("TRACE ten").ok());
  EXPECT_FALSE(ParseRequest("TRACE 3 4").ok());
}

TEST(ProtocolTest, SyncRequestRoundTrips) {
  Request sync;
  sync.verb = Verb::kSync;
  sync.document = "ms";
  sync.from_version = 41;
  auto parsed = ParseRequest(RenderRequest(sync));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->verb, Verb::kSync);
  EXPECT_EQ(parsed->document, "ms");
  EXPECT_EQ(parsed->from_version, 41u);

  parsed = ParseRequest("SYNC ms 0");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->from_version, 0u);

  EXPECT_FALSE(ParseRequest("SYNC").ok());           // no document
  EXPECT_FALSE(ParseRequest("SYNC ms").ok());        // no version
  EXPECT_FALSE(ParseRequest("SYNC ms -1").ok());
  EXPECT_FALSE(ParseRequest("SYNC ms five").ok());
  EXPECT_FALSE(ParseRequest("SYNC ms 1 2").ok());
  // 20 digits overflow the wire integer cap.
  EXPECT_FALSE(ParseRequest("SYNC ms 18446744073709551615").ok());
}

TEST(ProtocolTest, ResponseRoundTrips) {
  std::vector<std::string> items = {"alpha", "", "two words",
                                    "multi\nline item"};
  auto parsed = ParseResponse(RenderItems(items, 7, true));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->ok());
  EXPECT_EQ(parsed->items, items);
  EXPECT_EQ(parsed->version, 7u);
  EXPECT_TRUE(parsed->cache_hit);

  parsed = ParseResponse(RenderVersion(42));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->version, 42u);
  EXPECT_TRUE(parsed->items.empty());

  // An application error crosses the wire with its code and message.
  parsed = ParseResponse(RenderError(
      status::FailedPrecondition("write conflict on 'ms'\nbase 3")));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(parsed->status.message().find("write conflict"),
            std::string::npos);

  EXPECT_FALSE(ParseResponse("YES 1 2 3\n").ok());
  EXPECT_FALSE(ParseResponse("OK 2 0 0\n5 hello\n").ok());  // missing item
  EXPECT_FALSE(ParseResponse("OK 1 0 0\n99 short\n").ok());
  EXPECT_FALSE(ParseResponse("OK 0 0 0\ntrailing").ok());
  // A hostile item count must be a parse error, not a giant reserve().
  EXPECT_FALSE(ParseResponse("OK 9999999999999999999 0 0\n").ok());
  EXPECT_FALSE(ParseResponse("OK 1000000000 0 0\n").ok());
}

TEST(ProtocolTest, RejectsInjectionProneTags) {
  // A newline inside a tag would smuggle an extra op line; whitespace
  // would change the APPLY arity. Both are refused before rendering...
  EXPECT_EQ(ValidateEditOps({EditOp::Apply(2, "a0\nSELECT 0 40")}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateEditOps({EditOp::Apply(2, "my tag")}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateEditOps({EditOp::Apply(2, "")}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ValidateEditOps({EditOp::Select(0, 4),
                               EditOp::Apply(2, "a0")}).ok());
  // ...and the server-side parser rejects control bytes that survive
  // space-tokenization.
  EXPECT_FALSE(ParseRequest("EDIT ms\nAPPLY 2 bad\ttag\nCOMMIT").ok());
}

// ------------------------------------------------------- server fixture

constexpr size_t kContentChars = 3000;

const std::string& CorpusBytes() {
  static const std::string* bytes = [] {
    workload::GeneratorParams params;
    params.content_chars = kContentChars;
    auto corpus = workload::GenerateManuscript(params);
    EXPECT_TRUE(corpus.ok()) << corpus.status();
    auto g = goddag::Builder::Build(*corpus->doc);
    EXPECT_TRUE(g.ok()) << g.status();
    auto saved = storage::Save(*g);
    EXPECT_TRUE(saved.ok()) << saved.status();
    return new std::string(std::move(saved).value());
  }();
  return *bytes;
}

/// First offset >= `from` where an `a0` insert of length `len` fits
/// (within one hierarchy markup must stay nested, so inserts need gaps).
size_t FindFreeA0Gap(const goddag::Goddag& g, size_t from, size_t len) {
  std::vector<Interval> taken;
  for (goddag::NodeId node : g.ElementsByTag("a0")) {
    taken.push_back(g.char_range(node));
  }
  size_t offset = from;
  while (offset + len <= g.content().size()) {
    bool collides = false;
    for (const Interval& t : taken) {
      if (offset < t.end && t.begin < offset + len) {
        offset = t.end;
        collides = true;
        break;
      }
    }
    if (!collides) return offset;
  }
  ADD_FAILURE() << "no free a0 gap of length " << len;
  return 0;
}

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.RegisterBytes("ms", CorpusBytes()).ok());
    service_ = std::make_unique<service::QueryService>(
        &store_, service::QueryServiceOptions{/*num_threads=*/2,
                                              /*cache_capacity=*/256});
    ServerOptions options;
    options.num_workers = 4;
    server_ = std::make_unique<Server>(&store_, service_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    server_->Stop();
    server_.reset();
    service_.reset();
  }

  Client Connect() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }

  /// A free gap in the *current* snapshot, found through the back door
  /// the test conveniently has.
  Interval FreeGap(size_t from, size_t len = 40) {
    auto snap = store_.GetSnapshot("ms");
    EXPECT_TRUE(snap.ok());
    size_t offset = FindFreeA0Gap(*(*snap)->goddag, from, len);
    return Interval(offset, offset + len);
  }

  service::DocumentStore store_;
  std::unique_ptr<service::QueryService> service_;
  std::unique_ptr<Server> server_;
};

// -------------------------------------------------------- end to end

TEST_F(NetTest, PingListStat) {
  Client client = Connect();
  ASSERT_TRUE(client.Ping().ok());

  auto names = client.List();
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_EQ(*names, std::vector<std::string>{"ms"});

  auto stat = client.Stat();
  ASSERT_TRUE(stat.ok()) << stat.status();
  bool saw_documents = false;
  for (const std::string& line : *stat) {
    if (line == "documents 1") saw_documents = true;
  }
  EXPECT_TRUE(saw_documents) << "STAT misses 'documents 1'";
}

/// The acceptance scenario: a remote client registers a document,
/// queries it via Extended XPath and XQuery, commits an edit, and
/// observes the post-edit result — all over CXP/1.
TEST_F(NetTest, RegisterQueryEditObserve) {
  Client client = Connect();

  // Register a second document from raw CXG1 bytes.
  auto version = client.Register("remote", CorpusBytes());
  ASSERT_TRUE(version.ok()) << version.status();
  EXPECT_EQ(*version, 1u);
  auto names = client.List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"ms", "remote"}));

  // Extended XPath with the overlap axis, then XQuery over the wire.
  auto xpath = client.Query("remote", "count(//w[overlapping::line])",
                            service::QueryKind::kXPath);
  ASSERT_TRUE(xpath.ok()) << xpath.status();
  ASSERT_EQ(xpath->items.size(), 1u);
  EXPECT_GT(std::stoi(xpath->items[0]), 0);
  EXPECT_EQ(xpath->version, 1u);

  auto xquery = client.Query(
      "remote", "let $n := count(//w) return {string($n)}",
      service::QueryKind::kXQuery);
  ASSERT_TRUE(xquery.ok()) << xquery.status();
  ASSERT_EQ(xquery->items.size(), 1u);

  // A repeated query is served from the result cache.
  auto warm = client.Query("remote", "count(//w[overlapping::line])",
                           service::QueryKind::kXPath);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->items, xpath->items);

  // Edit: insert one <a0> annotation, observe the version bump and the
  // post-edit result of a fresh (invalidated) query.
  auto before = client.Query("remote", "count(//a0)",
                             service::QueryKind::kXPath);
  ASSERT_TRUE(before.ok());
  int a0_before = std::stoi(before->items[0]);

  auto snap = store_.GetSnapshot("remote");
  ASSERT_TRUE(snap.ok());
  size_t offset = FindFreeA0Gap(*(*snap)->goddag, 0, 40);
  auto committed = client.Edit(
      "remote", {EditOp::Select(offset, offset + 40), EditOp::Apply(2, "a0")});
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(*committed, 2u);

  auto after = client.Query("remote", "count(//a0)",
                            service::QueryKind::kXPath);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->cache_hit);
  EXPECT_EQ(after->version, 2u);
  EXPECT_EQ(std::stoi(after->items[0]), a0_before + 1);

  // Remove; further queries answer NotFound over the wire.
  ASSERT_TRUE(client.Remove("remote").ok());
  auto gone = client.Query("remote", "count(//w)",
                           service::QueryKind::kXPath);
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
}

TEST_F(NetTest, QueryErrorsSurfaceWithCodes) {
  Client client = Connect();
  auto bad = client.Query("ms", "//w[", service::QueryKind::kXPath);
  EXPECT_FALSE(bad.ok());
  auto missing = client.Query("ghost", "//w", service::QueryKind::kXPath);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The connection survives application errors.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

/// METRICS round trip: after real traffic, the exposition arrives as
/// one parseable blob holding the server's counters, the service's
/// histograms, and values consistent with STAT (which reads the same
/// registry).
TEST_F(NetTest, MetricsRoundTripMatchesStat) {
  Client client = Connect();
  ASSERT_TRUE(
      client.Query("ms", "count(//w)", service::QueryKind::kXPath).ok());
  ASSERT_TRUE(
      client.Query("ms", "count(//w)", service::QueryKind::kXPath).ok());

  auto exposition = client.Metrics();
  ASSERT_TRUE(exposition.ok()) << exposition.status();
  // At least one counter line and one histogram bucket line, each
  // "name value" with a numeric value.
  EXPECT_NE(exposition->find("cxml_server_frames_total "),
            std::string::npos);
  EXPECT_NE(exposition->find("cxml_service_requests_total 2"),
            std::string::npos);
  EXPECT_NE(exposition->find("cxml_cache_hits_total 1"),
            std::string::npos);
  EXPECT_NE(exposition->find("cxml_query_us_bucket{le="),
            std::string::npos);
  EXPECT_NE(exposition->find("cxml_query_us_count 2"), std::string::npos);
  EXPECT_NE(exposition->find("cxml_query_us_p50 "), std::string::npos);

  // STAT reads the same registry: its service_requests must agree with
  // the exposition's counter (plus the METRICS frame itself not yet
  // counted as a query).
  auto stat = client.Stat();
  ASSERT_TRUE(stat.ok()) << stat.status();
  bool saw = false;
  for (const std::string& line : *stat) {
    if (line == "service_requests 2") saw = true;
  }
  EXPECT_TRUE(saw) << "STAT disagrees with the registry";
}

/// The tentpole acceptance: one traced query surfaces at least four
/// distinct stages over the wire, and the root stages' micros account
/// for the request's end-to-end total (within 20%).
TEST_F(NetTest, TraceShowsStagesSummingToTotal) {
  Client client = Connect();
  // Cold overlap query on a fresh store: index build, cache miss, and
  // evaluation all land in this one request's trace, and the request
  // is slow enough that integer-µs rounding cannot hide the stages.
  ASSERT_TRUE(client
                  .Query("ms", "//w[overlapping::line]",
                         service::QueryKind::kXPath)
                  .ok());

  auto traces = client.Traces(10);
  ASSERT_TRUE(traces.ok()) << traces.status();
  ASSERT_FALSE(traces->empty());
  // Newest first; the QUERY is the most recent finished request.
  const std::string& trace = (*traces)[0];
  ASSERT_NE(trace.find("QUERY ms XPATH hash="), std::string::npos)
      << trace;

  // Header: "#<id> <label> total=<N>us".
  size_t total_pos = trace.find("total=");
  ASSERT_NE(total_pos, std::string::npos) << trace;
  uint64_t total_us =
      std::strtoull(trace.c_str() + total_pos + 6, nullptr, 10);
  ASSERT_GT(total_us, 0u) << trace;

  // Stage lines: "<indent>name <N>us[ (note)]". Roots indent exactly
  // two spaces; deeper stages are children and must not double-count.
  std::istringstream in(trace);
  std::string line;
  std::getline(in, line);  // header
  std::set<std::string> names;
  uint64_t root_sum_us = 0;
  while (std::getline(in, line)) {
    size_t name_begin = line.find_first_not_of(' ');
    ASSERT_NE(name_begin, std::string::npos) << trace;
    size_t name_end = line.find(' ', name_begin);
    ASSERT_NE(name_end, std::string::npos) << trace;
    names.insert(line.substr(name_begin, name_end - name_begin));
    if (name_begin == 2) {
      root_sum_us +=
          std::strtoull(line.c_str() + name_end + 1, nullptr, 10);
    }
  }
  EXPECT_GE(names.size(), 4u) << trace;
  EXPECT_TRUE(names.count("decode")) << trace;
  EXPECT_TRUE(names.count("service")) << trace;
  EXPECT_TRUE(names.count("eval")) << trace;
  // The roots (decode/service/respond) cover the end-to-end total to
  // within 20% — the instrumentation accounts for where time goes.
  EXPECT_GE(root_sum_us * 5, total_us * 4)
      << "roots sum to " << root_sum_us << "us of " << total_us << "us:\n"
      << trace;
  EXPECT_LE(root_sum_us, total_us + total_us / 5) << trace;

  // TRACE honors its count cap, newest first — and the previous TRACE
  // request was itself traced, so it is now the newest entry.
  auto capped = client.Traces(1);
  ASSERT_TRUE(capped.ok());
  ASSERT_EQ(capped->size(), 1u);
  EXPECT_NE((*capped)[0].find("TRACE"), std::string::npos)
      << (*capped)[0];
}

TEST_F(NetTest, MalformedFrameGetsErrAndClose) {
  auto fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(SendAll(*fd, "GET / HTTP/1.1\r\nHost: x\r\n\r\n").ok());

  // One ERR frame comes back, then the server closes the connection.
  FrameDecoder decoder;
  std::string payload;
  char buffer[4096];
  bool closed = false;
  while (!decoder.HasFrame()) {
    auto n = RecvSome(*fd, buffer, sizeof(buffer));
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_NE(*n, 0u) << "server closed before sending the ERR frame";
    ASSERT_TRUE(decoder.Feed(std::string_view(buffer, *n)).ok());
  }
  ASSERT_TRUE(decoder.Next(&payload));
  auto response = ParseResponse(payload);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status.code(), StatusCode::kParseError);
  for (int i = 0; i < 100 && !closed; ++i) {
    auto n = RecvSome(*fd, buffer, sizeof(buffer));
    if (!n.ok() || *n == 0) closed = true;
  }
  EXPECT_TRUE(closed);
  EXPECT_GE(server_->stats().protocol_errors, 1u);

  // The server is still healthy for well-behaved clients.
  Client client = Connect();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(NetTest, OversizeFrameRejected) {
  // A tiny per-server frame ceiling: the query below frames fine on the
  // client (its own decoder only guards responses) but trips the
  // server's limit.
  service::DocumentStore store;
  ASSERT_TRUE(store.RegisterBytes("ms", CorpusBytes()).ok());
  service::QueryService service(&store, {2, 64});
  ServerOptions options;
  options.max_frame_bytes = 128;
  Server small(&store, &service, options);
  ASSERT_TRUE(small.Start().ok());

  auto client = Client::Connect("127.0.0.1", small.port());
  ASSERT_TRUE(client.ok());
  auto response = client->Query("ms", std::string(4096, ' ') + "count(//w)",
                                service::QueryKind::kXPath);
  EXPECT_EQ(response.status().code(), StatusCode::kParseError);
  small.Stop();
}

TEST_F(NetTest, CrossFrameTransactionConflictSurfaces) {
  Client editor = Connect();
  Client rival = Connect();

  // The editor opens a cross-frame transaction and stages an op.
  Interval gap1 = FreeGap(0);
  auto base = editor.EditBegin("ms");
  ASSERT_TRUE(base.ok()) << base.status();
  EXPECT_EQ(*base, 1u);
  ASSERT_TRUE(editor
                  .EditOps({EditOp::Select(gap1.begin, gap1.end),
                            EditOp::Apply(2, "a0")})
                  .ok());

  // A rival commit lands in between (single-frame EDIT, other range).
  Interval gap2 = FreeGap(800);
  auto rival_version = rival.Edit(
      "ms", {EditOp::Select(gap2.begin, gap2.end), EditOp::Apply(2, "a0")});
  ASSERT_TRUE(rival_version.ok()) << rival_version.status();
  EXPECT_EQ(*rival_version, 2u);

  // The editor's commit must now lose with the optimistic-conflict
  // code, exactly as an in-process EditTransaction::Commit would.
  auto lost = editor.EditCommit();
  EXPECT_EQ(lost.status().code(), StatusCode::kFailedPrecondition);

  // The transaction is consumed: a second ECOMMIT has nothing to act on.
  EXPECT_EQ(editor.EditCommit().status().code(),
            StatusCode::kFailedPrecondition);

  // Retry from the new base succeeds.
  Interval gap3 = FreeGap(1500);
  ASSERT_TRUE(editor.EditBegin("ms").ok());
  ASSERT_TRUE(editor
                  .EditOps({EditOp::Select(gap3.begin, gap3.end),
                            EditOp::Apply(2, "a0")})
                  .ok());
  auto retried = editor.EditCommit();
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(*retried, 3u);
  EXPECT_EQ(store_.GetVersion("ms").value_or(0), 3u);
}

TEST_F(NetTest, TransactionStateMachineEdges) {
  Client client = Connect();
  EXPECT_EQ(client.EditCommit().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.EditAbort().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.EditOps({EditOp::Select(0, 10)}).code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(client.EditBegin("ms").ok());
  // A second EBEGIN on the same connection is rejected...
  EXPECT_EQ(client.EditBegin("ms").status().code(),
            StatusCode::kFailedPrecondition);
  // ...a failing op (selection past the content) leaves it open...
  Interval gap = FreeGap(0);
  EXPECT_EQ(client.EditOps({EditOp::Select(0, 10'000'000)}).code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(client
                  .EditOps({EditOp::Select(gap.begin, gap.end),
                            EditOp::Apply(2, "a0")})
                  .ok());
  // ...and EABORT discards it without publishing.
  ASSERT_TRUE(client.EditAbort().ok());
  EXPECT_EQ(store_.GetVersion("ms").value_or(0), 1u);

  // An abandoned transaction dies with its connection: a fresh client
  // can edit immediately (no server-side leak of the old clone).
  {
    Client holder = Connect();
    ASSERT_TRUE(holder.EditBegin("ms").ok());
  }  // disconnect aborts
  Interval gap2 = FreeGap(500);
  auto committed = client.Edit(
      "ms", {EditOp::Select(gap2.begin, gap2.end), EditOp::Apply(2, "a0")});
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(*committed, 2u);
}

TEST_F(NetTest, ConcurrentClients) {
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 50;
  const std::vector<std::string> mix = {
      "count(//w)",
      "//w[overlapping::line]",
      "count(//a0)",
      "count(//page/line)",
  };

  std::atomic<int> failures{0};
  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(kQueriesPerClient);
        return;
      }
      for (int i = 0; i < kQueriesPerClient; ++i) {
        auto response = client->Query(
            "ms", mix[(c + i) % mix.size()], service::QueryKind::kXPath);
        if (!response.ok()) {
          failures.fetch_add(1);
        } else if (response->cache_hit) {
          hits.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  // A 4-query mix over 400 requests must hit the shared result cache.
  EXPECT_GT(hits.load(), kClients * kQueriesPerClient / 2);
  ServerStats stats = server_->stats();
  EXPECT_GE(stats.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.frames_received,
            static_cast<uint64_t>(kClients * kQueriesPerClient));
  EXPECT_EQ(stats.responses_sent, stats.frames_received);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST_F(NetTest, ConcurrentEditsGroupCommitWithoutConflicts) {
  // Disjoint gaps, precomputed against version 1. Before the writer
  // pipeline, concurrent single-frame EDITs raced BeginEdit/Commit and
  // some lost with FailedPrecondition; pipelined, they serialize into
  // group commits and every one of them lands.
  constexpr int kEditors = 6;
  std::vector<Interval> gaps;
  size_t a0_before = 0;
  {
    auto snap = store_.GetSnapshot("ms");
    ASSERT_TRUE(snap.ok());
    a0_before = (*snap)->goddag->ElementsByTag("a0").size();
    size_t from = 0;
    for (int i = 0; i < kEditors; ++i) {
      size_t offset = FindFreeA0Gap(*(*snap)->goddag, from, 40);
      gaps.push_back(Interval(offset, offset + 40));
      from = offset + 41;
    }
  }

  std::atomic<int> failures{0};
  std::atomic<uint64_t> max_version{0};
  std::vector<std::thread> editors;
  editors.reserve(kEditors);
  for (int c = 0; c < kEditors; ++c) {
    editors.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      auto version = client->Edit(
          "ms", {EditOp::Select(gaps[c].begin, gaps[c].end),
                 EditOp::Apply(2, "a0")});
      if (!version.ok()) {
        failures.fetch_add(1);
        return;
      }
      uint64_t seen = *version;
      uint64_t prev = max_version.load();
      while (seen > prev &&
             !max_version.compare_exchange_weak(prev, seen)) {
      }
    });
  }
  for (std::thread& t : editors) t.join();

  EXPECT_EQ(failures.load(), 0);
  uint64_t final_version = store_.GetVersion("ms").value_or(0);
  EXPECT_EQ(final_version, max_version.load());
  // Group commit: at most one version per edit, at least one overall.
  EXPECT_GE(final_version, 2u);
  EXPECT_LE(final_version, 1u + kEditors);

  auto snap = store_.GetSnapshot("ms");
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE((*snap)->goddag->Validate().ok());
  // Every annotation landed despite the concurrency — none were lost
  // to optimistic races.
  EXPECT_EQ((*snap)->goddag->ElementsByTag("a0").size(),
            a0_before + kEditors);
  Client reader = Connect();
  auto count = reader.Query("ms", "count(//a0)",
                            service::QueryKind::kXPath);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(std::stoul(count->items[0]), a0_before + kEditors);
  EXPECT_GE(service_->stats().writes.edits,
            static_cast<uint64_t>(kEditors));
}

TEST_F(NetTest, IdleConnectionsAreClosedActiveOnesSurvive) {
  service::DocumentStore store;
  ASSERT_TRUE(store.RegisterBytes("ms", CorpusBytes()).ok());
  service::QueryService service(&store, {2, 64});
  ServerOptions options;
  // Generous vs the 50ms ping cadence below: only a >400ms scheduler
  // stall could spuriously reap the active client on a loaded runner.
  options.idle_timeout_ms = 450;
  Server server(&store, &service, options);
  ASSERT_TRUE(server.Start().ok());

  // An active client outlives several deadline windows: each PING
  // refreshes its read-activity clock.
  auto active = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(active.ok());
  // A silent connection (never sends a byte) is reaped by the deadline;
  // the blocking recv sees the server-side close as EOF.
  auto idle = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(idle.ok()) << idle.status();

  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(active->Ping().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  char buffer[64];
  auto n = RecvSome(*idle, buffer, sizeof(buffer));
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 0u) << "idle connection was not closed by the deadline";
  EXPECT_GE(server.stats().idle_disconnects, 1u);

  // The survivor is still healthy after the reap.
  EXPECT_TRUE(active->Ping().ok());
  server.Stop();
}

/// A follower-style server (read_only): every mutating verb answers
/// FailedPrecondition while the read path stays fully alive — the
/// replica must never fork its primary's history.
TEST(ReadOnlyServerTest, RejectsWritesServesReads) {
  service::DocumentStore store;
  ASSERT_TRUE(store.RegisterBytes("ms", CorpusBytes()).ok());
  service::QueryService service(
      &store, service::QueryServiceOptions{/*num_threads=*/2,
                                           /*cache_capacity=*/64});
  ServerOptions options;
  options.num_workers = 2;
  options.read_only = true;
  Server server(&store, &service, options);
  ASSERT_TRUE(server.Start().ok());

  auto connected = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status();
  Client client = std::move(connected).value();

  // Reads flow.
  ASSERT_TRUE(client.Ping().ok());
  auto counted = client.Query("ms", "count(//w)", service::QueryKind::kXPath);
  ASSERT_TRUE(counted.ok()) << counted.status();

  // Writes bounce, single-shot and transactional alike.
  auto edited = client.Edit(
      "ms", {EditOp::Select(10, 50), EditOp::Apply(2, "a0")});
  EXPECT_EQ(edited.status().code(), StatusCode::kFailedPrecondition);
  auto registered = client.Register("up", CorpusBytes());
  EXPECT_EQ(registered.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.Remove("ms").code(), StatusCode::kFailedPrecondition);
  auto txn = client.EditBegin("ms");
  EXPECT_EQ(txn.status().code(), StatusCode::kFailedPrecondition);

  // The rejections left no trace: same version, connection healthy.
  auto version = store.GetVersion("ms");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1u);
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
}

TEST_F(NetTest, ServerStopsCleanlyWithLiveConnections) {
  Client client = Connect();
  ASSERT_TRUE(client.Ping().ok());
  server_->Stop();
  // Whatever the client sees now must be an error, not a hang.
  EXPECT_FALSE(client.Ping().ok());
  // Stop is idempotent; Start-after-Stop is a fresh server elsewhere.
  server_->Stop();
}

// ------------------------------------------------- replies from workers

/// A raw client socket whose receive buffer is shrunk before connect,
/// so the advertised window stays small and a large response cannot
/// fit in the server's send buffer in one go.
Fd ConnectSmallWindow(uint16_t port) {
  Fd fd(socket(AF_INET, SOCK_STREAM, 0));
  EXPECT_TRUE(fd.valid());
  int rcvbuf = 4096;
  EXPECT_EQ(setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                       sizeof(rcvbuf)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  // A reply the server stops flushing fails the test instead of
  // hanging it.
  EXPECT_TRUE(SetRecvTimeout(fd, 10000).ok());
  return fd;
}

/// Reads `count` whole frames off a blocking socket.
std::vector<std::string> ReadFrames(const Fd& fd, size_t count) {
  FrameDecoder decoder;
  std::vector<std::string> frames;
  std::vector<char> buffer(64 * 1024);
  std::string payload;
  while (frames.size() < count) {
    while (frames.size() < count && decoder.Next(&payload)) {
      frames.push_back(std::move(payload));
    }
    if (frames.size() == count) break;
    auto n = RecvSome(fd, buffer.data(), buffer.size());
    EXPECT_TRUE(n.ok()) << n.status();
    if (!n.ok() || *n == 0) break;
    EXPECT_TRUE(decoder.Feed(std::string_view(buffer.data(), *n)).ok());
  }
  return frames;
}

std::string QueryFrame(service::QueryKind kind, const std::string& body) {
  Request request;
  request.verb = Verb::kQuery;
  request.document = "ms";
  request.kind = kind;
  request.body = body;
  return EncodeFrame(RenderRequest(request));
}

/// Eight copies of the whole document per word: about 12 MB of reply
/// from the small test corpus — more than loopback TCP will take in one
/// send (tcp_wmem tops out at 4 MB by default).
constexpr const char* kHugeQuery =
    "for $w in //w return {concat(string(/), string(/), string(/), "
    "string(/), string(/), string(/), string(/), string(/))}";

/// One connection pipelines QRUNs for queries that are cached (answered
/// on the net worker) and cold (answered by the query pool): replies
/// come back in request order, hits and misses interleaved.
TEST_F(NetTest, PipelinedQrunBurstMixingHitsAndMissesAnswersInOrder) {
  const std::vector<std::string> queries = {
      "concat('q0 ', count(//w))",    "concat('q1 ', count(//line))",
      "concat('q2 ', count(//s))",    "concat('q3 ', count(//page))",
      "concat('q4 ', count(//a0))",   "concat('q5 ', string(//w[3]))"};
  std::vector<std::vector<std::string>> expected;
  for (const std::string& q : queries) {
    service::QueryResponse r =
        service_->Execute({"ms", q, service::QueryKind::kXPath});
    ASSERT_TRUE(r.ok()) << r.status;
    expected.push_back(*r.items);
  }
  // Forget them, then re-warm only q0..q2: q3..q5 miss on first sight.
  service_->cache().Clear();
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        service_->Execute({"ms", queries[i], service::QueryKind::kXPath})
            .ok());
  }

  auto fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  std::string wire;
  for (const std::string& q : queries) {
    Request prepare;
    prepare.verb = Verb::kQueryPrepare;
    prepare.kind = service::QueryKind::kXPath;
    prepare.body = q;
    AppendFrame(&wire, RenderRequest(prepare));
  }
  std::vector<size_t> order;
  for (int round = 0; round < 4; ++round) {
    for (size_t i : {0, 3, 1, 4, 2, 5}) order.push_back(i);
  }
  for (size_t i : order) {
    Request run;
    run.verb = Verb::kQueryRun;
    run.document = "ms";
    run.qid = i + 1;  // qids are handed out 1, 2, ... in QPREPARE order
    AppendFrame(&wire, RenderRequest(run));
  }
  ASSERT_TRUE(SendAll(*fd, wire).ok());

  std::vector<std::string> frames =
      ReadFrames(*fd, queries.size() + order.size());
  ASSERT_EQ(frames.size(), queries.size() + order.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto prepared = ParseResponse(frames[i]);
    ASSERT_TRUE(prepared.ok() && prepared->ok()) << frames[i];
    EXPECT_EQ(prepared->version, i + 1);
  }
  std::set<size_t> seen;
  for (size_t k = 0; k < order.size(); ++k) {
    auto response = ParseResponse(frames[queries.size() + k]);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->ok()) << response->status;
    const size_t q = order[k];
    EXPECT_EQ(response->items, expected[q]) << "reply " << k;
    EXPECT_EQ(response->version, 1u);
    if (seen.insert(q).second) {
      // First sight: the warmed queries hit, the others miss.
      EXPECT_EQ(response->cache_hit, q < 3) << "reply " << k;
    } else {
      EXPECT_TRUE(response->cache_hit) << "reply " << k;
    }
  }
}

/// A cached reply far larger than the socket send buffer, to a client
/// that reads late through a small window: the worker's direct send
/// stops at EAGAIN and the poll thread delivers the rest intact.
TEST_F(NetTest, LargeReplyToSlowReaderArrivesIntact) {
  service::QueryResponse expected =
      service_->Execute({"ms", kHugeQuery, service::QueryKind::kXQuery});
  ASSERT_TRUE(expected.ok()) << expected.status;
  const std::string rendered = EncodeFrame(
      RenderItems(*expected.items, expected.version, true));
  ASSERT_GT(rendered.size(), 8u << 20) << "reply too small to test";

  Fd fd = ConnectSmallWindow(server_->port());
  ASSERT_TRUE(fd.valid());
  // Alone on the connection, so no later reply's wake-up can rescue a
  // remainder the worker failed to hand to the poll thread.
  ASSERT_TRUE(
      SendAll(fd, QueryFrame(service::QueryKind::kXQuery, kHugeQuery)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::vector<std::string> frames = ReadFrames(fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  auto big = ParseResponse(frames[0]);
  ASSERT_TRUE(big.ok()) << big.status();
  ASSERT_TRUE(big->ok()) << big->status;
  EXPECT_TRUE(big->cache_hit);
  EXPECT_EQ(big->items, *expected.items);

  // Pipelined behind another large reply, a small one still follows it.
  ASSERT_TRUE(
      SendAll(fd, QueryFrame(service::QueryKind::kXQuery, kHugeQuery) +
                      QueryFrame(service::QueryKind::kXPath, "count(//w)"))
          .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  frames = ReadFrames(fd, 2);
  ASSERT_EQ(frames.size(), 2u);
  big = ParseResponse(frames[0]);
  ASSERT_TRUE(big.ok() && big->ok()) << big.status();
  EXPECT_EQ(big->items, *expected.items);
  auto small = ParseResponse(frames[1]);
  ASSERT_TRUE(small.ok() && small->ok()) << frames[1].substr(0, 80);
  EXPECT_EQ(small->items.size(), 1u);
}

/// Peers that vanish mid-response — reset before the reply, or after
/// reading part of it — neither crash the server nor leave the
/// open-connection gauge off.
TEST_F(NetTest, PeerClosingMidResponseKeepsGaugeExact) {
  ASSERT_TRUE(service_
                  ->Execute({"ms", kHugeQuery, service::QueryKind::kXQuery})
                  .ok());
  obs::Gauge* open_conns =
      service_->registry()->GetGauge("cxml_server_open_conns");
  const int64_t before = open_conns->Value();

  for (int round = 0; round < 6; ++round) {
    Fd fd = ConnectSmallWindow(server_->port());
    ASSERT_TRUE(fd.valid());
    ASSERT_TRUE(
        SendAll(fd, QueryFrame(service::QueryKind::kXQuery, kHugeQuery))
            .ok());
    if (round % 2 == 1) {
      char buffer[1024];
      auto n = RecvSome(fd, buffer, sizeof(buffer));
      ASSERT_TRUE(n.ok()) << n.status();
    }
    if (round % 3 == 0) {
      // Abortive close: the server's next send sees ECONNRESET/EPIPE.
      linger hard{1, 0};
      ASSERT_EQ(setsockopt(fd.get(), SOL_SOCKET, SO_LINGER, &hard,
                           sizeof(hard)),
                0);
    }
    fd.Close();
  }

  for (int i = 0; i < 500 && open_conns->Value() != before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(open_conns->Value(), before);

  Client client = Connect();
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(open_conns->Value(), before + 1);
  auto count = client.Query("ms", "count(//w)", service::QueryKind::kXPath);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_TRUE(count->ok());
}

}  // namespace
}  // namespace cxml::net
