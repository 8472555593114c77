// perfbench_load: the load generator, answer checker and traced
// in-process replay of the CXP/1 benchmark (see perfbench/README.md).
//
//   perfbench_load run --workload W --seed N --seconds S --trace 0|1
//                      --port P --setup-port Q --out FILE
//   perfbench_load recover --data-dir D --expect FILE --out FILE
//
// `run` drives a running cxml_serverd on 127.0.0.1:P with one workload
// (hot_reads, cold_reads, durable_edits) and writes one JSON object of
// results to --out; the extra timed set-up rounds go to a second server
// on port Q. `recover` replays a stopped primary's WAL into a
// fresh store and compares it with the answers `run` recorded.
// Every input is generated from --seed; the server only ever sees the
// generated requests.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "goddag/builder.h"
#include "goddag/snapshot_index.h"
#include "ingest/ingest.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "service/collection_query.h"
#include "service/document_store.h"
#include "service/query_service.h"
#include "storage/binary.h"
#include "wal/manager.h"
#include "workload/generator.h"
#include "xml/lexer.h"
#include "xpath/engine.h"
#include "xquery/xquery.h"

namespace cxml::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using service::QueryKind;

/// Concatenates strings and numbers (integers print exactly; doubles
/// go through Num below when their digits matter).
template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_load: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void MustOk(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ull ^ (b + 0x632BE59BD9B4E019ull);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 29;
  return x;
}

/// FNV-1a over length-prefixed items: the identity of one answer.
uint64_t HashItems(const std::vector<std::string>& items) {
  uint64_t h = 1469598103934665603ull;
  auto feed = [&h](const char* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(p[i]);
      h *= 1099511628211ull;
    }
  };
  for (const std::string& item : items) {
    uint64_t n = item.size();
    feed(reinterpret_cast<const char*>(&n), sizeof(n));
    feed(item.data(), item.size());
  }
  return h;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ------------------------------------------------------------ statistics

/// Exact percentile (linear interpolation between closest ranks).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// p50, plus the highest of p90/p99/p99.9 that still has at least ten
/// samples beyond it; no tail is reported from fewer samples than that.
std::string TimingJson(const std::vector<double>& v) {
  std::string out = "{\"n\": " + std::to_string(v.size());
  if (!v.empty()) {
    out += ", \"p50\": " + Num(Percentile(v, 0.5));
    static const std::pair<double, const char*> kTails[] = {
        {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}};
    for (const auto& [p, label] : kTails) {
      if (static_cast<double>(v.size()) * (1 - p) >= 10.0) {
        out += Cat(", \"tail\": \"", label, "\", \"tail_value\": ",
                      Num(Percentile(v, p)));
        break;
      }
    }
  }
  return out + "}";
}

// ------------------------------------------------------------ the inputs

constexpr size_t kContentChars = 20000;
constexpr size_t kTeiChars = 20000;
constexpr size_t kColdDocs = 32;
constexpr size_t kColdGroups = 4;       // QCOLL globs of 8 documents
constexpr size_t kTemplateParams = 16;  // k = 1..16 per template form
constexpr uint64_t kVersionsPerCopy = 512;

workload::GeneratorParams ManuscriptParams(uint64_t seed) {
  workload::GeneratorParams params;
  params.content_chars = kContentChars;
  params.extra_hierarchies = 2;
  params.seed = Mix(seed, 0x6d73);
  return params;
}

/// The synthetic manuscript as CXG1 bytes plus its per-hierarchy XML
/// sources (what the pull lexer is measured on).
struct Manuscript {
  std::string bytes;
  std::vector<std::string> sources;
  /// Existing annotations of ann0/ann1 (hierarchies 2 and 3).
  std::vector<std::vector<Interval>> annotations;
};

Manuscript GenerateManuscriptBytes(uint64_t seed, bool collect_annotations) {
  Manuscript m;
  auto corpus = Must(workload::GenerateManuscript(ManuscriptParams(seed)),
                     "GenerateManuscript");
  auto g = Must(goddag::Builder::Build(*corpus.doc), "Builder::Build");
  m.bytes = Must(storage::Save(g), "storage::Save");
  m.sources = corpus.sources;
  if (collect_annotations) {
    // Reads the annotation extents back from the generated XML:
    // hierarchy 2+k holds flat <a{k}> ranges over the shared content.
    for (size_t k = 0; k < 2; ++k) {
      std::vector<Interval> ranges;
      xml::Lexer lexer(corpus.sources[2 + k]);
      size_t offset = 0;
      size_t open = 0;
      for (;;) {
        auto ev = Must(lexer.Next(), "lex annotations");
        if (ev.kind == xml::EventKind::kEndOfDocument) break;
        if (ev.kind == xml::EventKind::kText) offset += ev.text.size();
        if (ev.kind == xml::EventKind::kStartElement && ev.name != "r") {
          open = offset;
        }
        if (ev.kind == xml::EventKind::kEndElement && ev.name != "r") {
          ranges.push_back(Interval(open, offset));
        }
      }
      m.annotations.push_back(std::move(ranges));
    }
  }
  return m;
}

/// A seeded TEI document of about kTeiChars characters of markup:
/// an inline s/w backbone, <pb/>/<lb/> milestones that cut across it,
/// part="I"/"F" quotation chains spanning sentence boundaries and a
/// <standOff> block of offset-ranged spans.
std::string GenerateTei(uint64_t seed, size_t doc, uint64_t generation) {
  std::mt19937_64 rng(Mix(Mix(seed, 0x7465 + doc), generation));
  static const char* const kWords[] = {
      "arma", "virumque", "cano", "troiae", "qui", "primus", "ab", "oris",
      "italiam", "fato", "profugus", "laviniaque", "venit", "litora",
      "multum", "ille", "et", "terris", "iactatus", "alto", "vi", "superum",
      "saevae", "memorem", "iunonis", "ob", "iram", "musa", "mihi", "causas"};
  std::uniform_int_distribution<size_t> word(0, std::size(kWords) - 1);
  std::uniform_int_distribution<size_t> sentence_len(6, 18);
  std::uniform_int_distribution<int> percent(0, 99);

  std::string out = Cat("<TEI><teiHeader><fileDesc><title>doc ", doc,
                           " gen ", generation,
                           "</title></fileDesc></teiHeader><text><body>");
  size_t content = 0;
  size_t line = 1, page = 1, line_chars = 0;
  out += "<pb n=\"1\"/><lb n=\"1\"/>";
  size_t s_n = 0;
  bool quote_open = false;  // a part="I" fragment awaits its part="F"
  while (out.size() + 1000 < kTeiChars) {  // ~1000 left for standOff
    ++s_n;
    out += Cat("<s n=\"", s_n, "\">");
    size_t words = sentence_len(rng);
    bool start_quote = !quote_open && percent(rng) < 12;
    for (size_t w = 1; w <= words; ++w) {
      if (quote_open && w == 1) out += "<q part=\"F\">";
      if (start_quote && w == words - 2) out += "<q part=\"I\">";
      std::string text = kWords[word(rng)];
      out += Cat("<w n=\"", w, "\">", text, "</w>");
      content += text.size();
      line_chars += text.size();
      if (quote_open && w == 3) {
        out += "</q>";
        quote_open = false;
      }
      if (w < words) {
        out += " ";
        ++content;
        ++line_chars;
      }
      if (line_chars >= 60) {
        line_chars = 0;
        ++line;
        if (line % 20 == 1) {
          ++page;
          out += Cat("<pb n=\"", page, "\"/>");
        }
        out += Cat("<lb n=\"", line, "\"/>");
      }
    }
    if (start_quote) {
      out += "</q>";
      quote_open = true;
    }
    out += "</s>";
  }
  if (quote_open) {
    // Close the chain in a short trailing sentence.
    out += Cat("<s n=\"", ++s_n, "\"><q part=\"F\"><w n=\"1\">", "finis",
                  "</w></q></s>");
    content += 5;
  }
  out += "</body></text><standOff>";
  std::uniform_int_distribution<size_t> gap(20, 400);
  std::uniform_int_distribution<size_t> len(5, 120);
  size_t pos = gap(rng), k = 0;
  while (pos + 130 < content) {
    size_t end = pos + len(rng);
    out += Cat("<span from=\"", pos, "\" to=\"", end, "\" ana=\"t",
                  1 + (k++ % kTemplateParams), "\"/>");
    pos = end + gap(rng);
  }
  out += "</standOff></TEI>";
  return out;
}

/// One query the workload sends: its text, dialect and report family.
struct Query {
  std::string text;
  QueryKind kind = QueryKind::kXPath;
  std::string family;  // e.g. "descendant.slash" / "descendant.axis"
};

/// The cold_reads pool: every template in its leading-`//` form and its
/// `/descendant::` twin, each at kTemplateParams parameter values.
std::vector<Query> ColdQueries() {
  struct Template {
    const char* family;
    QueryKind kind;
    std::function<std::string(const std::string& lead, size_t k)> make;
  };
  const std::vector<Template> templates = {
      {"descendant", QueryKind::kXPath,
       [](const std::string& l, size_t k) {
         return Cat("count(", l, "w[@n='", k, "'])");
       }},
      {"ancestor", QueryKind::kXPath,
       [](const std::string& l, size_t k) {
         return Cat("count(", l, "w[@n='", k, "']/ancestor::line)");
       }},
      {"overlapping", QueryKind::kXPath,
       [](const std::string& l, size_t k) {
         return Cat("count(", l, "line[@n='", 7 * k,
                       "']/overlapping::s)");
       }},
      {"following", QueryKind::kXPath,
       [](const std::string& l, size_t k) {
         return Cat("count(", l, "page[@n='", k, "']/following::q)");
       }},
      {"value", QueryKind::kXPath,
       [](const std::string& l, size_t k) {
         return Cat("string(", l, "s[@n='", 11 * k, "'])");
       }},
      {"positional", QueryKind::kXPath,
       [](const std::string& l, size_t k) {
         return Cat("string(", l, "line[", 9 * k, "])");
       }},
      {"standoff", QueryKind::kXPath,
       [](const std::string& l, size_t k) {
         return Cat("count(", l, "span[@ana='t", k,
                       "']/overlapping::w)");
       }},
      {"flwor", QueryKind::kXQuery,
       [](const std::string& l, size_t k) {
         return Cat("for $l in ", l, "line[@n='", 5 * k,
                       "'] return {string(count($l/overlapping::w))}");
       }},
  };
  std::vector<Query> out;
  for (const Template& t : templates) {
    for (const char* lead : {"//", "/descendant::"}) {
      std::string form = std::strcmp(lead, "//") == 0 ? "slash" : "axis";
      for (size_t k = 1; k <= kTemplateParams; ++k) {
        out.push_back({t.make(lead, k), t.kind, Cat(t.family, ".", form)});
      }
    }
  }
  return out;
}

/// The hot_reads pool: GenerateTraffic's skewed XPath/XQuery stream as
/// its distinct queries plus, per step, the index of the query sent.
struct HotPool {
  std::vector<Query> queries;
  std::vector<size_t> stream;
};

HotPool MakeHotPool(uint64_t seed) {
  workload::TrafficParams params;
  params.num_ops = 4096;
  params.write_fraction = 0.0;
  params.content_chars = kContentChars;
  params.extra_hierarchies = 2;
  params.seed = Mix(seed, 0x686f74);
  auto ops = Must(workload::GenerateTraffic(params), "GenerateTraffic");
  HotPool pool;
  std::map<std::string, size_t> index;
  for (const workload::TrafficOp& op : ops) {
    auto [it, inserted] = index.emplace(op.query, pool.queries.size());
    if (inserted) {
      bool xq = op.kind == workload::TrafficOp::Kind::kXQuery;
      pool.queries.push_back(
          {op.query, xq ? QueryKind::kXQuery : QueryKind::kXPath, ""});
    }
    pool.stream.push_back(it->second);
  }
  return pool;
}

/// The read-your-write query editor `e` sends after each EDIT.
Query FreshQuery(size_t editor) {
  return {Cat("count(//a", editor, "[overlapping::w])"), QueryKind::kXPath, ""};
}

std::string ColdDocName(size_t doc) {
  return Cat("g", doc / (kColdDocs / kColdGroups), "_",
                doc % (kColdDocs / kColdGroups));
}

std::string ColdPattern(size_t group) { return Cat("g", group, "_?"); }

std::string CopyName(size_t copy) { return Cat("ms", copy); }


// ---------------------------------------------------------- measurement

/// One recorded span: a timed call made by this program into one layer
/// of the system. Spans of one request share `trace`; `parent` is the
/// index of the causing span in the same vector (-1 for a root).
struct Span {
  uint64_t trace = 0;
  int64_t parent = -1;
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
};

/// Spans kept per recorder; later ones are not recorded.
constexpr size_t kMaxSpans = 40000;

/// Per-thread tallies; merged after the threads join.
struct Recorder {
  std::map<std::string, std::vector<double>> lat;   // op -> µs samples
  std::map<std::string, std::vector<double>> when;  // op -> s since epoch
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;   // designed prevalidation rejections
  uint64_t items = 0;      // result items over every read
  std::vector<std::string> problems;
  /// (document, generation, version, query) -> answer hash.
  std::unordered_map<std::string, uint64_t> answers;

  bool tracing = false;
  Clock::time_point epoch;
  std::vector<Span> spans;
  uint64_t next_trace = 1;

  /// A timing sample of `op`, stamped with its completion time so the
  /// measured window can be cut into slices.
  void Sample(const std::string& op, double us) {
    lat[op].push_back(us);
    when[op].push_back(Now() / 1e6);
  }

  void Problem(const std::string& what) {
    ++failed;
    if (problems.size() < 20) problems.push_back(what);
  }

  /// Records an answer; a different answer under the same key is a
  /// wrong answer.
  void Answer(const std::string& key, uint64_t hash) {
    auto [it, inserted] = answers.emplace(key, hash);
    if (!inserted && it->second != hash) Problem("answer differs for " + key);
  }

  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
        .count();
  }
  /// Opens a span (only when tracing); returns its index or -1.
  int64_t Open(uint64_t trace, int64_t parent, const char* name) {
    if (!tracing || spans.size() >= kMaxSpans) return -1;
    spans.push_back({trace, parent, name, Now(), 0});
    return static_cast<int64_t>(spans.size()) - 1;
  }
  void Close(int64_t span) {
    if (span >= 0) spans[static_cast<size_t>(span)].end_us = Now();
  }
};

std::string AnswerKey(const std::string& doc, uint64_t generation,
                      uint64_t version, const Query& q) {
  return Cat(doc, "#", generation, "@", version, "|",
             q.kind == QueryKind::kXQuery ? "xq:" : "xp:", q.text);
}

/// The server's METRICS exposition as name -> value (bucket lines
/// dropped; histograms keep _sum/_count/_p50/_p90/_p99).
using Registry = std::map<std::string, double>;

Registry ParseRegistry(const std::string& text) {
  Registry out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos)
      continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double Get(const Registry& r, const std::string& name) {
  auto it = r.find(name);
  return it == r.end() ? 0 : it->second;
}

/// Counter delta over the measured window.
double Delta(const Registry& before, const Registry& after,
             const std::string& name) {
  return Get(after, name) - Get(before, name);
}

/// Mean of a histogram over the measured window (0 when it saw nothing).
double WindowMean(const Registry& before, const Registry& after,
                  const std::string& histogram) {
  double n = Delta(before, after, histogram + "_count");
  return n <= 0 ? 0 : Delta(before, after, histogram + "_sum") / n;
}

std::unique_ptr<net::Client> Connect(uint16_t port) {
  net::RetryPolicy policy;
  policy.max_attempts = 1;  // a retry would hide a failure
  policy.deadline_ms = 30000;
  auto client = Must(net::Client::Connect("127.0.0.1", port, policy),
                     "connect");
  return std::make_unique<net::Client>(std::move(client));
}

uint64_t MustPrepare(net::Client& client, const Query& q) {
  return Must(client.Prepare(q.kind, q.text), ("QPREPARE " + q.text).c_str());
}

/// The outcome of one QRUN/QCOLL round trip, already checked for
/// transport and server errors.
struct ReadResult {
  bool ok = false;
  net::Response response;
  double us = 0;
};

ReadResult TimedCall(net::Client& client, const net::Request& request,
                     Recorder& rec, uint64_t trace, int64_t parent,
                     const std::string& what) {
  ReadResult out;
  int64_t span = rec.Open(trace, parent, "client.call");
  Clock::time_point t0 = Clock::now();
  auto result = client.Call(request);
  out.us = MicrosSince(t0);
  rec.Close(span);
  ++rec.attempted;
  if (!result.ok()) {
    rec.Problem(what + ": transport: " + result.status().ToString());
    return out;
  }
  out.response = std::move(result).value();
  out.ok = true;
  return out;
}

net::Request RunRequest(const std::string& doc, uint64_t qid) {
  net::Request request;
  request.verb = net::Verb::kQueryRun;
  request.document = doc;
  request.qid = qid;
  return request;
}

// ------------------------------------------------------------ workloads

/// Per-layer samples of the traced replay, by metric name.
using Layers = std::map<std::string, std::vector<double>>;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint16_t port = 0;        // the measured server
  uint16_t setup_port = 0;  // a second server for the extra set-up rounds
  std::string out;
};

/// One workload: a set-up the benchmark times, a closed-loop step per
/// client thread, answer checks, and an in-process replay of the same
/// seeded inputs for the traced run.
class Workload {
 public:
  explicit Workload(const Options& opt) : opt_(opt) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Generates, registers/imports and warms on the server at `port`;
  /// `final` keeps the state for the measured phase, otherwise it is
  /// removed again.
  virtual void SetupRound(uint16_t port, bool final) = 0;
  virtual size_t threads() const = 0;
  /// One closed-loop request (or request pair) of client `t`.
  virtual void Step(size_t t, uint64_t i, Recorder& rec) = 0;
  /// After the measured phases: final checks on the server.
  virtual void Finish(Recorder& /*rec*/) {}
  /// Checks a seeded sample of the recorded answers against in-process
  /// XPathEngine/XQueryEngine evaluation of the same document.
  virtual size_t CheckOracle(const Recorder& merged, Recorder& rec) = 0;
  /// Replays the same seeded inputs in process for `seconds`, timing
  /// the calls into each module; fills `layers` and `rec.spans`.
  virtual void Replay(double seconds, Recorder& rec, Layers& layers) = 0;
  /// Facts recorded with the results (sizes, counts, pairs).
  virtual std::string Facts() const = 0;
  /// CXG1 size of one document (what one checkpoint writes).
  virtual size_t SnapshotBytes() const { return 0; }

 protected:
  const Options& opt_;
};

/// Evaluates `q` on a document the way QueryService does on a miss.
Result<std::vector<std::string>> Evaluate(const goddag::Goddag& g,
                                          const Query& q) {
  if (q.kind == QueryKind::kXPath) {
    xpath::XPathEngine engine(g);
    return engine.EvaluateToStrings(q.text);
  }
  xquery::XQueryEngine engine(g);
  return engine.Run(q.text);
}

/// Picks `n` keys, seeded, from the recorded answers whose key passes
/// `keep`.
std::vector<std::pair<std::string, uint64_t>> SampleAnswers(
    const Recorder& merged, uint64_t seed, size_t n,
    const std::function<bool(const std::string&)>& keep) {
  std::vector<std::pair<std::string, uint64_t>> all;
  for (const auto& kv : merged.answers) {
    if (keep(kv.first)) all.push_back(kv);
  }
  std::sort(all.begin(), all.end());
  std::mt19937_64 rng(Mix(seed, 0x6f7261));
  std::shuffle(all.begin(), all.end(), rng);
  if (all.size() > n) all.resize(n);
  return all;
}

/// Splits an AnswerKey back into its parts.
struct KeyParts {
  std::string doc;
  uint64_t generation = 0;
  uint64_t version = 0;
  Query query;
};

KeyParts SplitKey(const std::string& key) {
  KeyParts k;
  size_t hash = key.find('#'), at = key.find('@', hash),
         bar = key.find('|', at);
  k.doc = key.substr(0, hash);
  k.generation = std::strtoull(key.c_str() + hash + 1, nullptr, 10);
  k.version = std::strtoull(key.c_str() + at + 1, nullptr, 10);
  k.query.kind = key.compare(bar + 1, 3, "xq:") == 0 ? QueryKind::kXQuery
                                                     : QueryKind::kXPath;
  k.query.text = key.substr(bar + 4);
  return k;
}

/// Shared by the replays: one in-process service with the server's
/// shipped options (4 query threads, 1024-entry cache, 1 writer).
struct LocalService {
  service::DocumentStore store;
  service::QueryService service{&store, service::QueryServiceOptions()};
};

/// Net-layer cost of one read as the server pays it: frame decode and
/// ParseRequest of the request, RenderItems and framing of the reply.
void ReplayNet(const net::Request& request,
               const std::vector<std::string>& items, uint64_t version,
               bool hit, Recorder& rec, uint64_t trace, int64_t parent,
               Layers& layers) {
  std::string wire = net::EncodeFrame(net::RenderRequest(request));
  int64_t s = rec.Open(trace, parent, "net.decode");
  Clock::time_point t0 = Clock::now();
  net::FrameDecoder decoder;
  std::string payload;
  MustOk(decoder.Feed(wire), "FrameDecoder::Feed");
  if (!decoder.Next(&payload)) Die("replay: no frame decoded");
  auto parsed = net::ParseRequest(payload);
  layers["net.request_decode_us"].push_back(MicrosSince(t0));
  rec.Close(s);
  if (!parsed.ok()) Die("replay: ParseRequest failed");
  s = rec.Open(trace, parent, "net.encode");
  t0 = Clock::now();
  std::string reply = net::EncodeFrame(net::RenderItems(items, version, hit));
  layers["net.response_encode_us"].push_back(MicrosSince(t0));
  rec.Close(s);
  layers["net.response_bytes"].push_back(static_cast<double>(reply.size()));
}

/// One replayed read through QueryService::Execute, with the cache
/// lookup and (on a miss) the evaluation timed on their own.
void ReplayRead(LocalService& local, const std::string& doc,
                const service::QueryHandle& handle, const Query& q,
                Recorder& rec, Layers& layers, bool record_answer,
                uint64_t generation) {
  uint64_t trace = rec.next_trace++;
  int64_t root = rec.Open(trace, -1, "request");
  net::Request request = RunRequest(doc, 1);
  int64_t s = rec.Open(trace, root, "service.execute");
  Clock::time_point t0 = Clock::now();
  service::QueryResponse response = local.service.Execute(doc, handle);
  double execute_us = MicrosSince(t0);
  rec.Close(s);
  layers["service.execute_us"].push_back(execute_us);
  if (!response.ok()) Die("replay: " + response.status.ToString());
  auto snap = Must(local.store.GetSnapshot(doc), "replay snapshot");
  service::QueryKey key{snap->name, snap->version, snap->generation,
                        handle->canonical, handle->canonical_hash,
                        handle->kind};
  s = rec.Open(trace, root, "service.cache_get");
  t0 = Clock::now();
  service::CachedResult cached = local.service.cache().Get(key);
  layers["service.cache_get_us"].push_back(MicrosSince(t0));
  rec.Close(s);
  (void)cached;
  double eval_us = 0;
  if (!response.cache_hit) {
    const char* layer =
        q.kind == QueryKind::kXPath ? "xpath.eval" : "xquery.eval";
    s = rec.Open(trace, root, layer);
    t0 = Clock::now();
    Result<std::vector<std::string>> again =
        q.kind == QueryKind::kXPath ? snap->XPath().EvaluateToStrings(q.text)
                                    : snap->XQuery().Run(q.text);
    eval_us = MicrosSince(t0);
    rec.Close(s);
    if (!again.ok() || *again != *response.items) {
      rec.Problem("replay: engine and service disagree on " + q.text);
    }
    layers[q.kind == QueryKind::kXPath ? "xpath.eval_us" : "xquery.eval_us"]
        .push_back(eval_us);
    if (!q.family.empty()) {
      layers["xpath.eval_us." + q.family].push_back(eval_us);
    }
  }
  // Attributed per read: what evaluation took inside Execute.
  layers["attr.eval_us"].push_back(eval_us);
  layers["attr.service_us"].push_back(std::max(0.0, execute_us - eval_us));
  ReplayNet(request, *response.items, response.version, response.cache_hit,
            rec, trace, root, layers);
  rec.Close(root);
  if (record_answer) {
    rec.Answer(AnswerKey(doc, generation, response.version, q),
               HashItems(*response.items));
  }
}

/// Registration of CXG1 bytes (storage::Load + publish), timed.
void ReplayRegisterBytes(LocalService& local, const std::string& doc,
                         const std::string& bytes, Recorder& rec,
                         Layers& layers) {
  uint64_t trace = rec.next_trace++;
  int64_t s = rec.Open(trace, -1, "service.register");
  Clock::time_point t0 = Clock::now();
  MustOk(local.store.RegisterBytes(doc, bytes), "RegisterBytes");
  layers["service.register_us"].push_back(MicrosSince(t0));
  rec.Close(s);
}

/// A full SnapshotIndex build of `doc`'s current version, timed.
void ReplayIndexBuild(LocalService& local, const std::string& doc,
                      Recorder& rec, Layers& layers) {
  auto snap = Must(local.store.GetSnapshot(doc), "replay snapshot");
  uint64_t trace = rec.next_trace++;
  int64_t s = rec.Open(trace, -1, "goddag.index_build");
  Clock::time_point t0 = Clock::now();
  goddag::SnapshotIndex index(*snap->goddag);
  layers["goddag.index_build_us"].push_back(MicrosSince(t0));
  rec.Close(s);
}

/// The pull lexer alone over `markup`: the floor for any ingest path.
double LexMbPerS(const std::string& markup) {
  Clock::time_point t0 = Clock::now();
  xml::Lexer lexer(markup);
  size_t events = 0;
  for (;;) {
    auto ev = Must(lexer.Next(), "lex");
    if (ev.kind == xml::EventKind::kEndOfDocument) break;
    ++events;
  }
  double s = SecondsSince(t0);
  return events == 0 ? 0 : static_cast<double>(markup.size()) / 1e6 / s;
}

// ------------------------------------------------------------ hot_reads

/// The skewed GenerateTraffic pool against one registered manuscript,
/// prepared per connection and served from the warmed result cache.
class HotReads : public Workload {
 public:
  explicit HotReads(const Options& opt) : Workload(opt) {
    HotPool hot = MakeHotPool(opt.seed);
    pool_ = std::move(hot.queries);
    stream_ = std::move(hot.stream);
  }

  size_t threads() const override { return 2; }

  void SetupRound(uint16_t port, bool final) override {
    ms_ = GenerateManuscriptBytes(opt_.seed, false);
    conns_.clear();
    qids_.clear();
    for (size_t t = 0; t < threads(); ++t) {
      conns_.push_back(Connect(port));
      qids_.emplace_back();
      for (const Query& q : pool_) {
        qids_[t].push_back(MustPrepare(*conns_[t], q));
      }
    }
    Must(conns_[0]->Register(kDoc, ms_.bytes), "REGISTER");
    for (size_t t = 0; t < threads(); ++t) {
      for (uint64_t qid : qids_[t]) Must(conns_[t]->Run(kDoc, qid), "warm");
    }
    if (!final) MustOk(conns_[0]->Remove(kDoc), "REMOVE");
  }

  void Step(size_t t, uint64_t i, Recorder& rec) override {
    size_t qi = Draw(t, i);
    uint64_t trace = rec.next_trace++;
    int64_t root = rec.Open(trace, -1, "request");
    ReadResult r = TimedCall(*conns_[t], RunRequest(kDoc, qids_[t][qi]), rec,
                             trace, root, "QRUN");
    rec.Close(root);
    if (!r.ok) return;
    if (!r.response.ok()) {
      rec.Problem("QRUN: " + r.response.status.ToString());
      return;
    }
    rec.Sample("read", r.us);
    rec.items += r.response.items.size();
    rec.Answer(AnswerKey(kDoc, 0, r.response.version, pool_[qi]),
               HashItems(r.response.items));
  }

  size_t CheckOracle(const Recorder& merged, Recorder& rec) override {
    // The pool has fewer than 64 distinct pairs; every one is checked.
    auto loaded = Must(storage::Load(ms_.bytes), "storage::Load");
    auto sample = SampleAnswers(merged, opt_.seed, SIZE_MAX,
                                [](const std::string&) { return true; });
    for (const auto& [key, hash] : sample) {
      KeyParts k = SplitKey(key);
      auto items = Evaluate(*loaded.g, k.query);
      if (!items.ok() || HashItems(*items) != hash) {
        rec.Problem("oracle mismatch: " + key);
      }
    }
    return sample.size();
  }

  void Replay(double seconds, Recorder& rec, Layers& layers) override {
    LocalService local;
    ReplayRegisterBytes(local, kDoc, ms_.bytes, rec, layers);
    ReplayIndexBuild(local, kDoc, rec, layers);
    for (const std::string& source : ms_.sources) {
      layers["xml.lex_mb_s"].push_back(LexMbPerS(source));
    }
    std::vector<service::QueryHandle> handles;
    for (const Query& q : pool_) {
      handles.push_back(Must(local.service.Prepare(q.text, q.kind), "Prepare"));
    }
    Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; SecondsSince(t0) < seconds; ++i) {
      for (size_t t = 0; t < threads(); ++t) {
        size_t qi = Draw(t, i);
        ReplayRead(local, kDoc, handles[qi], pool_[qi], rec, layers, true, 0);
      }
    }
  }

  std::string Facts() const override {
    return Cat("{\"documents\": 1, \"content_chars\": ", kContentChars,
               ", \"cxg1_bytes\": ", ms_.bytes.size(),
               ", \"distinct_pairs\": ", pool_.size(),
               ", \"cache_capacity\": 1024, \"loop\": \"closed\", "
               "\"clients\": ", threads(), "}");
  }

 private:
  static constexpr const char* kDoc = "ms";

  /// Client `t` walks the pool stream from its own offset.
  size_t Draw(size_t t, uint64_t i) const {
    return stream_[(t * stream_.size() / threads() + i) % stream_.size()];
  }

  std::vector<Query> pool_;
  std::vector<size_t> stream_;
  Manuscript ms_;
  std::vector<std::unique_ptr<net::Client>> conns_;
  std::vector<std::vector<uint64_t>> qids_;
};

// ----------------------------------------------------------- cold_reads

/// 32 imported TEI documents, uniform (document, query) pairs drawn
/// from the twin templates, QCOLL over 8-document globs and document
/// replacement (REMOVE + IMPORT) beside the reads.
class ColdReads : public Workload {
 public:
  explicit ColdReads(const Options& opt)
      : Workload(opt), pool_(ColdQueries()), doc_mu_(kColdDocs),
        generation_(kColdDocs, 0) {}

  size_t threads() const override { return 2; }

  void SetupRound(uint16_t port, bool final) override {
    conns_.clear();
    qids_.clear();
    markup_bytes_ = 0;
    for (size_t t = 0; t < threads(); ++t) {
      conns_.push_back(Connect(port));
      qids_.emplace_back();
      for (const Query& q : pool_) {
        qids_[t].push_back(MustPrepare(*conns_[t], q));
      }
    }
    uint64_t warm = MustPrepare(*conns_[0], kWarm);
    for (size_t d = 0; d < kColdDocs; ++d) {
      generation_[d] = 0;
      std::string markup = GenerateTei(opt_.seed, d, 0);
      markup_bytes_ += markup.size();
      Must(conns_[0]->Import(ColdDocName(d), "tei", std::move(markup)),
           "IMPORT");
      Must(conns_[0]->Run(ColdDocName(d), warm), "warm QRUN");  // index build
    }
    if (!final) {
      for (size_t d = 0; d < kColdDocs; ++d) {
        MustOk(conns_[0]->Remove(ColdDocName(d)), "REMOVE");
      }
    }
    rngs_.clear();
    for (size_t t = 0; t < threads(); ++t) rngs_.emplace_back(StreamSeed(t));
  }

  void Step(size_t t, uint64_t i, Recorder& rec) override {
    Draw draw = NextDraw(rngs_[t]);
    net::Client& client = *conns_[t];
    uint64_t trace = rec.next_trace++;
    int64_t root = rec.Open(trace, -1, "request");
    if (i % 32 == 31) {
      Replace(client, draw.doc, rec, trace, root);
    } else if (i % 16 == 7) {
      Collection(client, t, draw, rec, trace, root);
    } else {
      const std::string doc = ColdDocName(draw.doc);
      std::shared_lock<std::shared_mutex> lock(doc_mu_[draw.doc]);
      uint64_t gen = generation_[draw.doc];
      ReadResult r = TimedCall(client, RunRequest(doc, qids_[t][draw.query]),
                               rec, trace, root, "QRUN");
      if (r.ok && !r.response.ok()) {
        rec.Problem("QRUN: " + r.response.status.ToString());
      } else if (r.ok) {
        rec.Sample("read", r.us);
        rec.items += r.response.items.size();
        rec.Answer(AnswerKey(doc, gen, r.response.version, pool_[draw.query]),
                   HashItems(r.response.items));
      }
    }
    rec.Close(root);
  }

  size_t CheckOracle(const Recorder& merged, Recorder& rec) override {
    auto sample =
        SampleAnswers(merged, opt_.seed, 64, [](const std::string& k) {
          return k.compare(0, 5, "coll:") != 0;
        });
    std::map<std::pair<std::string, uint64_t>, storage::LoadedGoddag> docs;
    for (const auto& [key, hash] : sample) {
      KeyParts k = SplitKey(key);
      auto& doc = docs[{k.doc, k.generation}];
      if (doc.g == nullptr) {
        doc = Must(ingest::Import(GenerateTei(opt_.seed, DocIndex(k.doc),
                                              k.generation)),
                   "ingest::Import")
                  .doc;
      }
      auto items = Evaluate(*doc.g, k.query);
      if (!items.ok() || HashItems(*items) != hash) {
        rec.Problem("oracle mismatch: " + key);
      }
    }
    if (sample.size() < 64) rec.Problem("fewer than 64 answers to check");
    return sample.size();
  }

  void Replay(double seconds, Recorder& rec, Layers& layers) override {
    LocalService local;
    std::vector<uint64_t> gen(kColdDocs, 0);
    for (size_t d = 0; d < kColdDocs; ++d) {
      ReplayImport(local, d, 0, rec, layers);
      ReplayIndexBuild(local, ColdDocName(d), rec, layers);
    }
    std::vector<service::QueryHandle> handles;
    for (const Query& q : pool_) {
      handles.push_back(Must(local.service.Prepare(q.text, q.kind), "Prepare"));
    }
    std::vector<std::mt19937_64> rngs;
    for (size_t t = 0; t < threads(); ++t) rngs.emplace_back(StreamSeed(t));
    Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; SecondsSince(t0) < seconds; ++i) {
      for (size_t t = 0; t < threads(); ++t) {
        Draw draw = NextDraw(rngs[t]);
        if (i % 32 == 31) {
          MustOk(local.store.Remove(ColdDocName(draw.doc)), "Remove");
          ReplayImport(local, draw.doc, ++gen[draw.doc], rec, layers);
        } else if (i % 16 == 7) {
          ReplayCollection(local, draw, handles[draw.query], rec, layers);
        } else {
          ReplayRead(local, ColdDocName(draw.doc), handles[draw.query],
                     pool_[draw.query], rec, layers, true, gen[draw.doc]);
        }
      }
    }
  }

  std::string Facts() const override {
    return Cat("{\"documents\": ", kColdDocs,
               ", \"markup_bytes_per_document\": ", markup_bytes_ / kColdDocs,
               ", \"queries\": ", pool_.size(),
               ", \"distinct_pairs\": ", pool_.size() * kColdDocs,
               ", \"cache_capacity\": 1024, \"qcoll_documents\": ",
               kColdDocs / kColdGroups,
               ", \"qcoll_share\": \"1/16\", \"replace_share\": \"1/32\""
               ", \"loop\": \"closed\", \"clients\": ", threads(), "}");
  }

 private:
  struct Draw {
    size_t doc = 0;
    size_t query = 0;
    size_t group = 0;
  };
  inline static const Query kWarm{"count(/descendant::page)", QueryKind::kXPath,
                                  ""};

  uint64_t StreamSeed(size_t t) const { return Mix(opt_.seed, 0x636f6c64 + t); }

  Draw NextDraw(std::mt19937_64& rng) const {
    Draw d;
    d.doc = rng() % kColdDocs;
    d.query = rng() % pool_.size();
    d.group = rng() % kColdGroups;
    return d;
  }

  static size_t DocIndex(const std::string& name) {
    size_t group = std::strtoul(name.c_str() + 1, nullptr, 10);
    size_t idx = std::strtoul(name.c_str() + name.find('_') + 1, nullptr, 10);
    return group * (kColdDocs / kColdGroups) + idx;
  }

  void Replace(net::Client& client, size_t d, Recorder& rec, uint64_t trace,
               int64_t root) {
    std::unique_lock<std::shared_mutex> lock(doc_mu_[d]);
    uint64_t gen = generation_[d] + 1;
    std::string markup = GenerateTei(opt_.seed, d, gen);
    net::Request remove;
    remove.verb = net::Verb::kRemove;
    remove.document = ColdDocName(d);
    ReadResult r = TimedCall(client, remove, rec, trace, root, "REMOVE");
    if (!r.ok) return;
    if (!r.response.ok()) {
      rec.Problem("REMOVE: " + r.response.status.ToString());
      return;
    }
    net::Request import;
    import.verb = net::Verb::kImport;
    import.document = ColdDocName(d);
    import.format = "tei";
    import.body = std::move(markup);
    r = TimedCall(client, import, rec, trace, root, "IMPORT");
    if (!r.ok) return;
    if (!r.response.ok()) {
      rec.Problem("IMPORT: " + r.response.status.ToString());
      return;
    }
    rec.Sample("import", r.us);
    generation_[d] = gen;
  }

  void Collection(net::Client& client, size_t t, const Draw& draw,
                  Recorder& rec, uint64_t trace, int64_t root) {
    size_t per = kColdDocs / kColdGroups;
    std::vector<std::shared_lock<std::shared_mutex>> locks;
    std::string gens;
    for (size_t k = 0; k < per; ++k) {
      size_t d = draw.group * per + k;
      locks.emplace_back(doc_mu_[d]);
      gens += Cat(generation_[d], ",");
    }
    net::Request request;
    request.verb = net::Verb::kCollectionQuery;
    request.pattern = ColdPattern(draw.group);
    request.qid = qids_[t][draw.query];
    ReadResult r = TimedCall(client, request, rec, trace, root, "QCOLL");
    if (!r.ok) return;
    if (!r.response.ok() || r.response.version != per) {
      rec.Problem("QCOLL: " + r.response.status.ToString());
      return;
    }
    rec.Sample("qcoll", r.us);
    rec.items += r.response.items.size();
    rec.Answer(Cat("coll:", request.pattern, "#", gens, "|",
                   pool_[draw.query].text),
               HashItems(r.response.items));
  }

  void ReplayImport(LocalService& local, size_t d, uint64_t gen, Recorder& rec,
                    Layers& layers) {
    std::string markup = GenerateTei(opt_.seed, d, gen);
    layers["xml.lex_mb_s"].push_back(LexMbPerS(markup));
    uint64_t trace = rec.next_trace++;
    int64_t s = rec.Open(trace, -1, "ingest.import");
    Clock::time_point t0 = Clock::now();
    auto imported = Must(ingest::Import(markup), "ingest::Import");
    double us = MicrosSince(t0);
    rec.Close(s);
    layers["ingest.import_us"].push_back(us);
    layers["ingest.mb_s"].push_back(static_cast<double>(markup.size()) / us);
    s = rec.Open(trace, -1, "service.register");
    t0 = Clock::now();
    MustOk(local.store.Register(ColdDocName(d), std::move(imported.doc)),
           "Register");
    layers["service.register_us"].push_back(MicrosSince(t0));
    rec.Close(s);
  }

  void ReplayCollection(LocalService& local, const Draw& draw,
                        const service::QueryHandle& handle, Recorder& rec,
                        Layers& layers) {
    uint64_t trace = rec.next_trace++;
    int64_t s = rec.Open(trace, -1, "service.collection");
    Clock::time_point t0 = Clock::now();
    service::CollectionResponse response = service::RunCollectionQuery(
        &local.service, ColdPattern(draw.group), handle);
    double fanout_us = MicrosSince(t0);
    rec.Close(s);
    if (!response.ok()) Die("replay QCOLL: " + response.status.ToString());
    layers["service.coll_fanout_us"].push_back(fanout_us);
    // Sequential per-document evaluation of the same query: the work
    // the fan-out spread over the query threads.
    double sum_us = 0;
    const Query& q = pool_[draw.query];
    for (const service::CollectionDocResult& doc : response.docs) {
      auto snap = Must(local.store.GetSnapshot(doc.document), "snapshot");
      t0 = Clock::now();
      auto items = q.kind == QueryKind::kXPath
                       ? snap->XPath().EvaluateToStrings(q.text)
                       : snap->XQuery().Run(q.text);
      sum_us += MicrosSince(t0);
      if (!items.ok() || *items != doc.items) {
        rec.Problem("replay QCOLL differs from per-document evaluation");
      }
    }
    layers["service.coll_parallel_efficiency"].push_back(
        sum_us / (fanout_us * static_cast<double>(
                                  service::QueryServiceOptions().num_threads)));
  }

  std::vector<Query> pool_;
  std::vector<std::shared_mutex> doc_mu_;
  std::vector<uint64_t> generation_;  // guarded by doc_mu_[d]
  size_t markup_bytes_ = 0;
  std::vector<std::unique_ptr<net::Client>> conns_;
  std::vector<std::vector<uint64_t>> qids_;
  std::vector<std::mt19937_64> rngs_;
};

// -------------------------------------------------------- durable_edits

/// Two editors, each owning one annotation hierarchy of a WAL-armed
/// manuscript, commit 40-character spans and read their own write; a
/// third connection reads the hot_reads pool. Each copy of the
/// manuscript takes kVersionsPerCopy versions, then a fresh copy is
/// registered.
class DurableEdits : public Workload {
 public:
  explicit DurableEdits(const Options& opt)
      : Workload(opt), ms_(GenerateManuscriptBytes(opt.seed, true)) {
    HotPool hot = MakeHotPool(opt.seed);
    pool_ = std::move(hot.queries);
    stream_ = std::move(hot.stream);
    auto loaded = Must(storage::Load(ms_.bytes), "storage::Load");
    size_t content = loaded.g->content().size();
    // Free 40-character slots between each hierarchy's annotations,
    // one character clear of them and of each other.
    for (size_t e = 0; e < 2; ++e) {
      std::vector<Interval> taken = ms_.annotations[e];
      std::sort(taken.begin(), taken.end(),
                [](const Interval& a, const Interval& b) {
                  return a.begin < b.begin;
                });
      taken.push_back(Interval(content, content));
      std::vector<Interval> slots;
      size_t pos = 0;
      for (const Interval& a : taken) {
        while (pos + 1 + kSpan + 1 <= a.begin) {
          slots.push_back(Interval(pos + 1, pos + 1 + kSpan));
          pos += 1 + kSpan;
        }
        pos = std::max(pos, a.end);
      }
      slots_.push_back(std::move(slots));
    }
  }

  size_t threads() const override { return 3; }

  void SetupRound(uint16_t port, bool final) override {
    ms_ = GenerateManuscriptBytes(opt_.seed, true);
    conns_.clear();
    qids_.clear();
    for (size_t t = 0; t < threads(); ++t) {
      conns_.push_back(Connect(port));
      qids_.emplace_back();
      for (const Query& q : pool_) {
        qids_[t].push_back(MustPrepare(*conns_[t], q));
      }
      if (t < 2) fresh_qid_[t] = MustPrepare(*conns_[t], FreshQuery(t));
    }
    Must(conns_[0]->Register(CopyName(0), ms_.bytes), "REGISTER");
    for (uint64_t qid : qids_[2]) {
      Must(conns_[2]->Run(CopyName(0), qid), "warm");
    }
    for (size_t e = 0; e < 2; ++e) {
      Must(conns_[e]->Run(CopyName(0), fresh_qid_[e]), "warm");
    }
    if (!final) MustOk(conns_[0]->Remove(CopyName(0)), "REMOVE");
    copy_.store(0);
    first_live_.store(0);
    for (size_t e = 0; e < 2; ++e) editors_[e] = EditorState();
    acks_.clear();
  }

  void Step(size_t t, uint64_t i, Recorder& rec) override {
    uint64_t trace = rec.next_trace++;
    int64_t root = rec.Open(trace, -1, "request");
    if (t == 2) {
      size_t qi = stream_[i % stream_.size()];
      Read(*conns_[2], copy_.load(), qids_[2][qi], pool_[qi], 0, rec, trace,
           root);
    } else {
      Edit(t, rec, trace, root);
    }
    rec.Close(root);
  }

  void Finish(Recorder& rec) override {
    // Final answers of every copy, which the WAL recovery must match.
    std::map<size_t, uint64_t> acked;
    for (const Ack& a : acks_) {
      acked[a.copy] = std::max(acked[a.copy], a.version);
    }
    std::string expect;
    std::vector<Query> checks = pool_;
    checks.push_back(FreshQuery(0));
    checks.push_back(FreshQuery(1));
    for (size_t c = first_live_.load(); c <= copy_.load(); ++c) {
      uint64_t want = acked.count(c) ? acked[c] : 1;
      for (const Query& q : checks) {
        auto r = conns_[2]->Query(CopyName(c), q.text, q.kind);
        ++rec.attempted;
        if (!r.ok()) {
          rec.Problem("final QUERY: " + r.status().ToString());
          continue;
        }
        if (r->version != want) {
          rec.Problem(Cat("copy ", c, " at version ", r->version,
                          ", last ack was ", want));
        }
        rec.Answer(AnswerKey(CopyName(c), 0, r->version, q),
                   HashItems(r->items));
        expect += Cat(CopyName(c), "\t", r->version, "\t",
                      q.kind == QueryKind::kXQuery ? "xq" : "xp", "\t",
                      HashItems(r->items), "\t", q.text, "\n");
      }
    }
    std::ofstream(opt_.out + ".expect") << expect;
  }

  size_t CheckOracle(const Recorder& merged, Recorder& rec) override {
    // Rebuilds copies in process from the acked edits, one commit per
    // published version, and evaluates a seeded sample of the answers
    // at the versions the server gave them.
    size_t checked = 0;
    for (size_t c = 0; c <= copy_.load() && checked < 64; ++c) {
      std::string name = CopyName(c);
      auto sample = SampleAnswers(merged, opt_.seed, 64 - checked,
                                  [&name](const std::string& k) {
                                    return k.compare(0, name.size() + 1,
                                                     name + "#") == 0;
                                  });
      std::vector<KeyParts> keys;
      std::map<std::string, uint64_t> hashes;
      for (const auto& [key, hash] : sample) {
        keys.push_back(SplitKey(key));
        hashes[key] = hash;
      }
      std::sort(keys.begin(), keys.end(),
                [](const KeyParts& a, const KeyParts& b) {
                  return a.version < b.version;
                });
      std::multimap<uint64_t, const Ack*> by_version;
      for (const Ack& a : acks_) {
        if (a.copy == c) by_version.emplace(a.version, &a);
      }
      service::DocumentStore store;
      MustOk(store.RegisterBytes(name, ms_.bytes), "RegisterBytes");
      uint64_t version = 1;
      for (const KeyParts& k : keys) {
        while (version < k.version) {
          ++version;
          auto txn = Must(store.BeginEdit(name), "BeginEdit");
          auto range = by_version.equal_range(version);
          if (range.first == range.second) {
            rec.Problem(Cat("no acked edit for ", name, " version ", version));
            return checked;
          }
          for (auto it = range.first; it != range.second; ++it) {
            const Ack& a = *it->second;
            txn.session().ClearSelection();
            MustOk(txn.session().Select(a.span), "Select");
            Must(txn.session().Apply(2 + a.editor, Cat("a", a.editor)),
                 "oracle Apply");
          }
          if (Must(txn.Commit(), "oracle Commit") != version) {
            Die("oracle version sequence diverged");
          }
        }
        auto snap = Must(store.GetSnapshot(name), "snapshot");
        auto items = Evaluate(*snap->goddag, k.query);
        std::string key = AnswerKey(k.doc, k.generation, k.version, k.query);
        if (!items.ok() || HashItems(*items) != hashes[key]) {
          rec.Problem("oracle mismatch: " + key);
        }
        ++checked;
      }
    }
    if (checked < 64) rec.Problem("fewer than 64 answers to check");
    return checked;
  }

  void Replay(double seconds, Recorder& rec, Layers& layers) override {
    LocalService local;
    size_t copy = 0;
    ReplayRegisterBytes(local, CopyName(copy), ms_.bytes, rec, layers);
    ReplayIndexBuild(local, CopyName(copy), rec, layers);
    for (const std::string& source : ms_.sources) {
      layers["xml.lex_mb_s"].push_back(LexMbPerS(source));
    }
    std::vector<service::QueryHandle> handles;
    for (const Query& q : pool_) {
      handles.push_back(Must(local.service.Prepare(q.text, q.kind), "Prepare"));
    }
    service::QueryHandle fresh[2];
    for (size_t e = 0; e < 2; ++e) {
      fresh[e] = Must(local.service.Prepare(FreshQuery(e).text,
                                            QueryKind::kXPath), "Prepare");
    }
    EditorState state[2];
    Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; SecondsSince(t0) < seconds; ++i) {
      for (size_t e = 0; e < 2; ++e) {
        Interval span;
        bool overlap = false;
        if (!NextSpan(e, copy, state[e], &span, &overlap)) {
          NextReplayCopy(local, ++copy, rec, layers);
          break;
        }
        std::string doc = CopyName(copy);
        uint64_t trace = rec.next_trace++;
        int64_t root = rec.Open(trace, -1, "commit");
        int64_t s = rec.Open(trace, root, "storage.clone");
        Clock::time_point c0 = Clock::now();
        auto txn = Must(local.store.BeginEdit(doc), "BeginEdit");
        layers["storage.clone_us"].push_back(MicrosSince(c0));
        rec.Close(s);
        s = rec.Open(trace, root, "edit.apply");
        c0 = Clock::now();
        Status selected = txn.session().Select(span);
        bool applied = selected.ok() &&
                       txn.session().Apply(2 + e, Cat("a", e)).ok();
        layers["edit.apply_us"].push_back(MicrosSince(c0));
        rec.Close(s);
        if (applied == overlap) {
          rec.Problem(Cat("replay: edit ", span.begin, "-", span.end,
                          overlap ? " should have been rejected"
                                  : " was rejected"));
        }
        if (!applied) {
          rec.Close(root);
          continue;
        }
        s = rec.Open(trace, root, "service.publish");
        c0 = Clock::now();
        uint64_t version = Must(txn.Commit(), "Commit");
        layers["service.publish_us"].push_back(MicrosSince(c0));
        rec.Close(s);
        rec.Close(root);
        ReplayRead(local, doc, fresh[e], FreshQuery(e), rec, layers, false, 0);
        if (version > kVersionsPerCopy) {
          NextReplayCopy(local, ++copy, rec, layers);
          break;
        }
      }
      size_t qi = stream_[i % stream_.size()];
      ReplayRead(local, CopyName(copy), handles[qi], pool_[qi], rec, layers,
                 false, 0);
    }
  }

  std::string Facts() const override {
    std::map<size_t, uint64_t> commits;
    for (const Ack& a : acks_) ++commits[a.copy];
    std::string per_copy;
    for (const auto& [c, n] : commits) {
      per_copy += Cat(per_copy.empty() ? "" : ", ", n);
    }
    return Cat("{\"documents\": ", copy_.load() + 1, ", \"content_chars\": ",
               kContentChars, ", \"cxg1_bytes\": ", ms_.bytes.size(),
               ", \"versions_per_copy\": ", kVersionsPerCopy,
               ", \"commits_per_copy\": [", per_copy,
               "], \"edit_chars\": ", kSpan,
               ", \"free_slots_per_editor\": [", slots_[0].size(), ", ",
               slots_[1].size(), "], \"overlapping_edit_share\": \"1/8\"",
               ", \"reader_distinct_queries\": ", pool_.size(),
               ", \"cache_capacity\": 1024, \"loop\": \"closed\", "
               "\"clients\": 3}");
  }

  size_t SnapshotBytes() const override { return ms_.bytes.size(); }

  /// Acked commits (for the answer oracle and the recovery check).
  struct Ack {
    size_t copy = 0;
    uint64_t version = 0;
    size_t editor = 0;
    Interval span;
  };

 private:
  static constexpr size_t kSpan = 40;

  struct EditorState {
    size_t copy = SIZE_MAX;
    std::vector<Interval> slots;
    size_t cursor = 0;
    uint64_t edits = 0;
    std::mt19937_64 rng;
  };

  /// The next span editor `e` sends on `copy`: a fresh free slot, or
  /// every 8th edit one that straddles an existing annotation's start.
  /// False when the copy has no free slot left.
  bool NextSpan(size_t e, size_t copy, EditorState& st, Interval* span,
                bool* overlap) {
    if (st.copy != copy) {
      st.copy = copy;
      st.slots = slots_[e];
      st.rng.seed(Mix(opt_.seed, copy * 2 + e));
      std::shuffle(st.slots.begin(), st.slots.end(), st.rng);
      st.cursor = 0;
    }
    *overlap = st.edits % 8 == 7;
    if (*overlap) {
      ++st.edits;
      const std::vector<Interval>& anns = ms_.annotations[e];
      const Interval& a = anns[st.rng() % anns.size()];
      *span = a.begin >= kSpan / 2
                  ? Interval(a.begin - kSpan / 2, a.begin + kSpan / 2)
                  : Interval(a.end - kSpan / 2, a.end + kSpan / 2);
      return true;
    }
    if (st.cursor == st.slots.size()) return false;
    ++st.edits;
    *span = st.slots[st.cursor++];
    return true;
  }

  void NextReplayCopy(LocalService& local, size_t copy, Recorder& rec,
                      Layers& layers) {
    ReplayRegisterBytes(local, CopyName(copy), ms_.bytes, rec, layers);
    if (copy >= 2) MustOk(local.store.Remove(CopyName(copy - 2)), "Remove");
  }

  void SwitchCopy(net::Client& client, size_t from, Recorder& rec) {
    std::lock_guard<std::mutex> lock(copy_mu_);
    if (copy_.load() != from) return;
    auto registered = client.Register(CopyName(from + 1), ms_.bytes);
    if (!registered.ok()) {
      rec.Problem("REGISTER copy: " + registered.status().ToString());
      return;
    }
    copy_.store(from + 1);
    // Copies before the previous one are done: their last checkpoint
    // has had a whole copy's run to finish. Dropping them keeps the
    // server's footprint at about two copies however fast commits go.
    if (from >= 1) {
      Status removed = client.Remove(CopyName(from - 1));
      if (!removed.ok()) rec.Problem("REMOVE copy: " + removed.ToString());
      first_live_.store(from);
    }
  }

  void Read(net::Client& client, size_t copy, uint64_t qid, const Query& q,
            uint64_t min_version, Recorder& rec, uint64_t trace, int64_t root) {
    ReadResult r = TimedCall(client, RunRequest(CopyName(copy), qid), rec,
                             trace, root, "QRUN");
    if (!r.ok) return;
    if (!r.response.ok()) {
      rec.Problem("QRUN: " + r.response.status.ToString());
      return;
    }
    // The read-your-write reads are this workload's reads; the pool
    // reader's hit-or-miss reads (a hit whenever no commit landed since
    // the same query) are reported on their own.
    rec.Sample(min_version > 0 ? "read" : "pool_read", r.us);
    if (min_version > 0) {
      rec.Sample("fresh_read", r.us);
      if (r.response.version < min_version) {
        rec.Problem(Cat("fresh read at version ", r.response.version,
                        " after ack of ", min_version));
      }
    }
    rec.items += r.response.items.size();
    rec.Answer(AnswerKey(CopyName(copy), 0, r.response.version, q),
               HashItems(r.response.items));
  }

  void Edit(size_t e, Recorder& rec, uint64_t trace, int64_t root) {
    size_t copy = copy_.load();
    Interval span;
    bool overlap = false;
    if (!NextSpan(e, copy, editors_[e], &span, &overlap)) {
      SwitchCopy(*conns_[e], copy, rec);
      return;
    }
    net::Request request;
    request.verb = net::Verb::kEdit;
    request.document = CopyName(copy);
    request.ops = {net::EditOp::Select(span.begin, span.end),
                   net::EditOp::Apply(static_cast<cmh::HierarchyId>(2 + e),
                                      Cat("a", e))};
    ReadResult r = TimedCall(*conns_[e], request, rec, trace, root, "EDIT");
    if (!r.ok) return;
    rec.Sample("edit", r.us);
    if (overlap) {
      if (r.response.ok()) {
        rec.Problem(Cat("overlapping edit ", span.begin, "-", span.end,
                        " was accepted"));
      } else {
        ++rec.rejected;
      }
      return;
    }
    if (!r.response.ok()) {
      rec.Problem("EDIT: " + r.response.status.ToString());
      return;
    }
    uint64_t version = r.response.version;
    rec.Sample("commit", r.us);
    rec.lat["op_text_bytes"].push_back(
        static_cast<double>(net::RenderOps(request.ops).size()));
    {
      std::lock_guard<std::mutex> lock(ack_mu_);
      acks_.push_back({copy, version, e, span});
    }
    Read(*conns_[e], copy, fresh_qid_[e], FreshQuery(e), version, rec, trace,
         root);
    if (version > kVersionsPerCopy) SwitchCopy(*conns_[e], copy, rec);
  }

  Manuscript ms_;
  std::vector<Query> pool_;
  std::vector<size_t> stream_;
  std::vector<std::vector<Interval>> slots_;
  std::vector<std::unique_ptr<net::Client>> conns_;
  std::vector<std::vector<uint64_t>> qids_;
  uint64_t fresh_qid_[2] = {0, 0};
  EditorState editors_[2];  // each touched by its own editor thread only
  std::mutex copy_mu_;      // serializes copy switches
  std::atomic<size_t> copy_{0};
  std::atomic<size_t> first_live_{0};  // older copies were removed
  std::mutex ack_mu_;
  std::vector<Ack> acks_;  // guarded by ack_mu_ while clients run
};

// ----------------------------------------------------------------- main

Registry Scrape(uint16_t port) {
  auto client = Connect(port);
  return ParseRegistry(Must(client->Metrics(), "METRICS"));
}

/// Folds `from` into `into` (answers re-checked for agreement).
void Absorb(Recorder& into, Recorder& from) {
  for (auto field : {&Recorder::lat, &Recorder::when}) {
    for (auto& [op, v] : from.*field) {
      auto& dst = (into.*field)[op];
      dst.insert(dst.end(), v.begin(), v.end());
    }
  }
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.rejected += from.rejected;
  into.items += from.items;
  for (std::string& p : from.problems) {
    if (into.problems.size() < 20) into.problems.push_back(std::move(p));
  }
  for (const auto& [key, hash] : from.answers) into.Answer(key, hash);
  const int64_t base = static_cast<int64_t>(into.spans.size());
  for (Span span : from.spans) {
    if (span.parent >= 0) span.parent += base;  // parents index the vector
    into.spans.push_back(span);
  }
}

/// One measured phase: the merged tallies of every client thread and
/// the window they ran in (seconds since the run's epoch).
struct Phase {
  Recorder rec;
  double start_s = 0;
  double end_s = 0;
  /// (s since epoch, steal ticks, all ticks) from /proc/stat, sampled
  /// through the phase: the share of CPU time the host's hypervisor
  /// took from this machine.
  std::vector<std::array<double, 3>> cpu;
};

/// The machine-wide steal and total CPU ticks (0, 0 when unreadable).
std::array<double, 2> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> cpu;
  double total = 0;
  for (double& x : v) {
    if (!(in >> x)) break;
    total += x;
  }
  return {v[7], total};  // user nice system idle iowait irq softirq steal
}

/// Runs every client thread's closed loop for `seconds`.
Phase RunPhase(Workload& w, double seconds, bool tracing,
               Clock::time_point epoch) {
  std::vector<Recorder> recs(w.threads());
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  Phase phase;
  std::thread sampler([&] {
    while (!stop.load() && Clock::now() < deadline) {
      auto [steal, total] = CpuTicks();
      phase.cpu.push_back(
          {std::chrono::duration<double>(Clock::now() - epoch).count(), steal,
           total});
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  for (size_t t = 0; t < w.threads(); ++t) {
    recs[t].tracing = tracing;
    recs[t].epoch = epoch;
    recs[t].next_trace = (t + 1) << 40;
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; Clock::now() < deadline && !stop.load(); ++i) {
        w.Step(t, i, recs[t]);
        if (recs[t].failed > 100) stop.store(true);  // hopeless; stop early
      }
    });
  }
  for (std::thread& th : threads) th.join();
  stop.store(true);
  sampler.join();
  auto [steal, total] = CpuTicks();
  phase.cpu.push_back(
      {std::chrono::duration<double>(Clock::now() - epoch).count(), steal,
       total});
  phase.start_s = std::chrono::duration<double>(start - epoch).count();
  phase.end_s = std::chrono::duration<double>(Clock::now() - epoch).count();
  phase.rec.epoch = epoch;
  for (Recorder& r : recs) Absorb(phase.rec, r);
  return phase;
}

/// `stat` of each of kSlices equal time slices of the phase, applied
/// to the slice's samples of `op` and the slice width in s (NaN for an
/// empty slice).
constexpr int kSlices = 10;

/// Every wall-clock figure tracks the share of CPU time the host's
/// hypervisor takes from this machine (a hot read's p50 doubles at 20%
/// steal), so the end-to-end figures use only the kUsedSlices time
/// slices and kUsedRounds set-up rounds with the least steal. A run in
/// which one of those still saw more than kMaxStealPct is unqualified:
/// its figures are not comparable and run.py reports no result for it.
constexpr size_t kUsedSlices = 5;
constexpr size_t kUsedRounds = 6;
constexpr double kMaxStealPct = 12;

using SliceStat = std::function<double(const std::vector<double>&, double)>;

std::vector<double> SliceValues(const Phase& phase, const std::string& op,
                                const SliceStat& stat) {
  std::vector<double> out(kSlices, std::nan(""));
  auto lat = phase.rec.lat.find(op);
  if (lat == phase.rec.lat.end()) return out;
  const std::vector<double>& when = phase.rec.when.at(op);
  double width = (phase.end_s - phase.start_s) / kSlices;
  std::vector<std::vector<double>> slices(kSlices);
  for (size_t i = 0; i < when.size(); ++i) {
    int k = static_cast<int>((when[i] - phase.start_s) / width);
    slices[std::clamp(k, 0, kSlices - 1)].push_back(lat->second[i]);
  }
  for (int k = 0; k < kSlices; ++k) {
    if (!slices[k].empty()) out[k] = stat(slices[k], width);
  }
  return out;
}

/// The median of the values of the slices marked in `use`: a slowdown
/// confined to a slice or two of the window does not move it.
double SliceMedian(const Phase& phase, const std::string& op,
                   const SliceStat& stat, const std::vector<bool>& use) {
  std::vector<double> values;
  std::vector<double> all = SliceValues(phase, op, stat);
  for (int k = 0; k < kSlices; ++k) {
    if (use[k] && !std::isnan(all[k])) values.push_back(all[k]);
  }
  return Percentile(values, 0.5);
}

double Ratio(double num, double den) { return den <= 0 ? 0 : num / den; }

/// Steal share (%) between two CpuTicks() samples.
double StealPct(const std::array<double, 2>& a, const std::array<double, 2>& b) {
  return 100 * Ratio(b[0] - a[0], b[1] - a[1]);
}

/// Marks the `keep` entries of `steal` with the least steal; clears
/// `*qualified` if one of them is above kMaxStealPct.
std::vector<bool> LeastStolen(const std::vector<double>& steal, size_t keep,
                              bool* qualified) {
  std::vector<size_t> order(steal.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  std::vector<bool> use(steal.size(), false);
  for (size_t i = 0; i < keep && i < order.size(); ++i) {
    use[order[i]] = true;
    if (steal[order[i]] > kMaxStealPct) *qualified = false;
  }
  return use;
}

/// Steal share (%) of each of the kSlices slices of the phase.
std::vector<double> SliceSteal(const Phase& phase) {
  std::vector<double> out(kSlices, 0);
  double width = (phase.end_s - phase.start_s) / kSlices;
  for (int k = 0; k < kSlices; ++k) {
    double a = phase.start_s + k * width, b = a + width;
    const std::array<double, 3>* first = nullptr;
    const std::array<double, 3>* last = nullptr;
    for (const auto& sample : phase.cpu) {
      if (sample[0] <= a) first = &sample;
      if (last == nullptr && sample[0] >= b) last = &sample;
    }
    if (first == nullptr) first = &phase.cpu.front();
    if (last == nullptr) last = &phase.cpu.back();
    out[k] = StealPct({(*first)[1], (*first)[2]}, {(*last)[1], (*last)[2]});
  }
  return out;
}

double MeanOf(const Layers& m,
              const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0 : Mean(it->second);
}

/// Self time per layer (span name up to the first '.'), summed over
/// all spans and divided by the number of root spans.
std::map<std::string, double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0);
  size_t roots = 0;
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
    } else {
      ++roots;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    std::string name = spans[i].name;
    std::string layer = name.substr(0, name.find('.'));
    out[layer] += spans[i].end_us - spans[i].start_us - child[i];
  }
  for (auto& [layer, us] : out) {
    us /= static_cast<double>(std::max<size_t>(roots, 1));
  }
  return out;
}

std::string ListJson(const std::vector<double>& v) {
  std::string out = "[";
  for (double x : v) out += Cat(out.size() > 1 ? ", " : "", Num(x));
  return out + "]";
}

std::string MapJson(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    out += Cat(out.size() > 1 ? ", " : "", "\"", JsonEscape(k), "\": ", Num(v));
  }
  return out + "}";
}

int Run(const Options& opt) {
  std::unique_ptr<Workload> w;
  if (opt.workload == "hot_reads") {
    w = std::make_unique<HotReads>(opt);
  } else if (opt.workload == "cold_reads") {
    w = std::make_unique<ColdReads>(opt);
  } else if (opt.workload == "durable_edits") {
    w = std::make_unique<DurableEdits>(opt);
  } else {
    Die("unknown workload '" + opt.workload + "'");
  }
  Clock::time_point epoch = Clock::now();

  // Set-up, several times: all but the last on the set-up server, so
  // the churn of registering and removing documents never shows in the
  // measured server's memory; the last one stays for the measurement.
  constexpr int kSetupRounds = 11;
  std::vector<double> setup;
  std::vector<double> setup_steal;
  for (int round = 0; round < kSetupRounds; ++round) {
    bool final = round + 1 == kSetupRounds;
    std::array<double, 2> ticks = CpuTicks();
    Clock::time_point t0 = Clock::now();
    w->SetupRound(final ? opt.port : opt.setup_port, final);
    setup.push_back(SecondsSince(t0));
    setup_steal.push_back(StealPct(ticks, CpuTicks()));
  }

  Registry before = Scrape(opt.port);
  double seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  Phase measured = RunPhase(*w, seconds, false, epoch);
  Recorder& main = measured.rec;
  Recorder traced;
  if (opt.trace) traced = std::move(RunPhase(*w, seconds, true, epoch).rec);
  Registry after = Scrape(opt.port);
  Recorder checks;
  w->Finish(checks);
  size_t oracle_checked = w->CheckOracle(main, checks);

  Layers layers;
  Recorder replay;
  if (opt.trace) {
    replay.tracing = true;
    replay.epoch = epoch;
    w->Replay(seconds, replay, layers);
  }
  // Every answer, from every source, must agree per key.
  Recorder all;
  for (Recorder* r : {&main, &traced, &checks, &replay}) Absorb(all, *r);

  const auto& lat = main.lat;
  std::vector<double> steal = SliceSteal(measured);
  bool qualified = true;
  std::vector<bool> use = LeastStolen(steal, kUsedSlices, &qualified);
  std::vector<bool> use_round =
      LeastStolen(setup_steal, kUsedRounds, &qualified);
  std::vector<double> setup_used;
  for (size_t r = 0; r < setup.size(); ++r) {
    if (use_round[r]) setup_used.push_back(setup[r]);
  }
  auto p = [&](const char* op, double q) {
    return SliceMedian(
        measured, op,
        [q](const std::vector<double>& v, double) { return Percentile(v, q); },
        use);
  };
  auto rate = [&](const char* op) {
    return SliceMedian(measured, op,
                       [](const std::vector<double>& v, double s) {
                         return static_cast<double>(v.size()) / s;
                       },
                       use);
  };
  std::map<std::string, double> e2e = {
      {"setup_s", Percentile(setup_used, 0.5)},
      {"read_p50_us", p("read", 0.5)},
      {"read_p90_us", p("read", 0.9)},
      {"reads_per_s", rate("read")},
      {"error_rate", Ratio(static_cast<double>(all.failed),
                           static_cast<double>(all.attempted))},
  };
  if (lat.count("qcoll")) e2e["qcoll_p50_us"] = p("qcoll", 0.5);
  if (lat.count("import")) e2e["import_p50_us"] = p("import", 0.5);
  if (lat.count("commit")) {
    e2e["commit_p50_us"] = p("commit", 0.5);
    e2e["commit_p90_us"] = p("commit", 0.9);
    e2e["commits_per_s"] = rate("commit");
    e2e["fresh_read_p50_us"] = p("fresh_read", 0.5);
  }

  std::map<std::string, double> layer;
  std::map<std::string, double> self;
  if (opt.trace) {
    // Replay timings (p50; response bytes as a mean) of the calls this
    // workload makes.
    for (const auto& [name, v] : layers) {
      if (name.rfind("attr.", 0) == 0) continue;
      layer[name] = name == "net.response_bytes" ? Mean(v) : Percentile(v, 0.5);
    }
    // Server registry deltas over both wire phases. A layer the workload
    // does not exercise gets no entry rather than a 0.
    layer["service.queue_us"] =
        WindowMean(before, after, "cxml_query_queue_us");
    double hits = Delta(before, after, "cxml_cache_hits_total");
    double misses = Delta(before, after, "cxml_cache_misses_total");
    layer["service.cache_hit_ratio"] = Ratio(hits, hits + misses);
    // Round trip minus queue wait and service time, only where every
    // query the registry timed was one of these QRUNs: a QCOLL adds one
    // registry-timed query per document it fans out to.
    if (!main.lat.count("qcoll") && !traced.lat.count("qcoll")) {
      std::vector<double> qruns;
      for (Recorder* r : {&main, &traced}) {
        for (const char* op : {"read", "pool_read"}) {
          if (r->lat.count(op)) {
            qruns.insert(qruns.end(), r->lat.at(op).begin(),
                         r->lat.at(op).end());
          }
        }
      }
      layer["net.wire_overhead_us"] =
          Mean(qruns) - WindowMean(before, after, "cxml_query_us") -
          WindowMean(before, after, "cxml_query_queue_us");
    }
    double batches = Delta(before, after, "cxml_write_batches_total");
    if (batches > 0) {
      layer["service.write_batch_size"] =
          Delta(before, after, "cxml_write_batched_edits_total") / batches;
    }
    double records = Delta(before, after, "cxml_wal_records_total");
    if (records > 0) {
      for (const char* h : {"append", "fsync", "fsync_wait"}) {
        layer[Cat("wal.", h, "_us")] =
            WindowMean(before, after, Cat("cxml_wal_", h, "_us"));
      }
      double checkpoints = Delta(before, after, "cxml_wal_checkpoints_total");
      double wal_bytes = Delta(before, after, "cxml_wal_bytes_total");
      layer["wal.checkpoints"] = checkpoints;
      if (checkpoints > 0) {
        layer["wal.checkpoint_us"] =
            WindowMean(before, after, "cxml_wal_checkpoint_us");
      }
      layer["wal.bytes_per_commit"] = wal_bytes / records;
      double op_bytes = 0;
      for (Recorder* r : {&main, &traced}) {
        if (r->lat.count("op_text_bytes")) {
          for (double b : r->lat.at("op_text_bytes")) op_bytes += b;
        }
      }
      if (op_bytes > 0) {
        layer["wal.write_amplification"] =
            (wal_bytes +
             checkpoints * static_cast<double>(w->SnapshotBytes())) /
            op_bytes;
      }
    }
    double patches = Delta(before, after, "cxml_index_patch_total");
    double rebuilds = Delta(before, after, "cxml_index_rebuild_total");
    if (patches > 0) {
      layer["goddag.index_patch_us"] =
          WindowMean(before, after, "cxml_index_patch_us");
      layer["goddag.patch_ratio"] = patches / (patches + rebuilds);
      layer["goddag.pools_shared"] =
          Delta(before, after, "cxml_index_pool_reuse_total") / patches;
    }
    double pool_nodes = Delta(before, after, "cxml_axis_pool_nodes_total");
    double items = static_cast<double>(main.items + traced.items);
    if (pool_nodes > 0 && items > 0) {
      layer["xpath.nodes_per_result"] = pool_nodes / items;
    }
    if (main.lat.count("edit")) {
      layer["edit.reject_ratio"] =
          static_cast<double>(main.rejected) /
          static_cast<double>(main.lat.at("edit").size());
    }
    double untraced_p50 =
        lat.count("read") ? Percentile(lat.at("read"), 0.5) : 0;
    double traced_p50 = traced.lat.count("read")
                            ? Percentile(traced.lat.at("read"), 0.5)
                            : 0;
    layer["obs.tracing_overhead_pct"] =
        untraced_p50 <= 0 ? 0
                          : (traced_p50 - untraced_p50) / untraced_p50 * 100;
    layer["attr.net_us"] = MeanOf(layers, "net.request_decode_us") +
                           MeanOf(layers, "net.response_encode_us");
    layer["attr.eval_us"] = MeanOf(layers, "attr.eval_us");
    layer["attr.service_us"] = MeanOf(layers, "attr.service_us");
    self = SelfTimes(replay.spans);

    // Spans of the traced wire phase and the replay, written at the end.
    std::ofstream spans(opt.out + ".spans.json");
    spans << "[";
    bool first = true;
    int64_t base = 0;  // parents index the written array
    for (Recorder* r : {&traced, &replay}) {
      for (const Span& s : r->spans) {
        spans << (first ? "" : ",\n") << "{\"trace\":" << s.trace
              << ",\"parent\":" << (s.parent < 0 ? -1 : s.parent + base)
              << ",\"name\":\"" << s.name
              << "\",\"start_us\":" << Num(s.start_us)
              << ",\"end_us\":" << Num(s.end_us) << "}";
        first = false;
      }
      base += static_cast<int64_t>(r->spans.size());
    }
    spans << "]\n";
  }

  std::string timings = "{";
  for (const auto& [op, v] : lat) {
    if (op == "op_text_bytes") continue;
    timings += Cat(timings.size() > 1 ? ", " : "", "\"", op, "\": ",
                   TimingJson(v));
  }
  timings += "}";
  std::string problems = "[";
  for (const std::string& s : all.problems) {
    problems += Cat(problems.size() > 1 ? ", " : "", "\"", JsonEscape(s), "\"");
  }
  problems += "]";

  std::ofstream out(opt.out);
  out << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"correct\": " << (all.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << all.attempted << ", \"failed\": " << all.failed
      << ", \"rejected\": " << main.rejected
      << ", \"oracle_checked\": " << oracle_checked
      << ", \"distinct_answers\": " << all.answers.size()
      << ", \"measured_s\": " << Num(measured.end_s - measured.start_s)
      << ", \"problems\": " << problems
      << ", \"setup_rounds_s\": " << ListJson(setup)
      << ", \"qualified\": " << (qualified ? "true" : "false")
      << ", \"used_slices\": " << kUsedSlices
      << ", \"used_rounds\": " << kUsedRounds
      << ", \"max_steal_pct\": " << Num(kMaxStealPct)
      << ", \"setup_steal_pct\": " << ListJson(setup_steal)
      << ",\n \"slices\": {\"steal_pct\": " << ListJson(steal)
      << ", \"read_p50_us\": "
      << ListJson(SliceValues(measured, "read",
                              [](const std::vector<double>& v, double) {
                                return Percentile(v, 0.5);
                              }))
      << "}"
      << ",\n \"end_to_end\": " << MapJson(e2e)
      << ",\n \"timings\": " << timings
      << ",\n \"per_layer\": " << MapJson(layer)
      << ",\n \"self_us_per_request\": " << MapJson(self)
      << ",\n \"facts\": " << w->Facts()
      << ",\n \"registry\": " << MapJson(after) << "}\n";
  return 0;
}

/// Recovers a stopped primary's data directory into a fresh store and
/// compares versions and answers with what `run` recorded.
int Recover(const std::string& data_dir, const std::string& expect,
            const std::string& out_path) {
  std::vector<std::string> problems;
  Clock::time_point t0 = Clock::now();
  service::DocumentStore store;
  wal::WalOptions options;
  options.data_dir = data_dir;
  wal::WalManager wal(options);
  MustOk(wal.Open(), "WalManager::Open");
  wal::RecoveryStats stats;
  MustOk(wal.RecoverAll(&store, &stats), "RecoverAll");
  double recover_ms = SecondsSince(t0) * 1e3;
  std::ifstream in(expect);
  std::string line;
  size_t checked = 0;
  while (std::getline(in, line)) {
    std::vector<std::string> f;
    size_t pos = 0;
    for (int k = 0; k < 4; ++k) {
      size_t tab = line.find('\t', pos);
      f.push_back(line.substr(pos, tab - pos));
      pos = tab + 1;
    }
    Query q{line.substr(pos),
            f[2] == "xq" ? QueryKind::kXQuery : QueryKind::kXPath, ""};
    auto snap = store.GetSnapshot(f[0]);
    ++checked;
    if (!snap.ok()) {
      problems.push_back("not recovered: " + f[0]);
      continue;
    }
    if (Cat((*snap)->version) != f[1]) {
      problems.push_back(Cat(f[0], " recovered at version ", (*snap)->version,
                             ", primary was at ", f[1]));
      continue;
    }
    auto items = Evaluate(*(*snap)->goddag, q);
    if (!items.ok() || Cat(HashItems(*items)) != f[3]) {
      problems.push_back("recovered answer differs: " + f[0] + " " + q.text);
    }
  }
  if (checked == 0) problems.push_back("nothing to check in " + expect);
  std::string list = "[";
  for (size_t i = 0; i < problems.size() && i < 20; ++i) {
    list += Cat(i ? ", " : "", "\"", JsonEscape(problems[i]), "\"");
  }
  std::ofstream(out_path)
      << "{\"ok\": " << (problems.empty() ? "true" : "false")
      << ", \"checked\": " << checked
      << ", \"documents\": " << stats.docs_recovered
      << ", \"records_replayed\": " << stats.records_replayed
      << ", \"recover_ms\": " << Num(recover_ms) << ", \"problems\": " << list
      << "]}\n";
  return 0;
}

}  // namespace
}  // namespace cxml::perfbench

int main(int argc, char** argv) {
  using namespace cxml::perfbench;
  if (argc < 2) Die("usage: perfbench_load run|recover [flags]");
  std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) Die(Cat("bad flag ", argv[i]));
    flags[argv[i] + 2] = argv[i + 1];
  }
  auto flag = [&](const char* name) {
    auto it = flags.find(name);
    if (it == flags.end()) Die(Cat("missing --", name));
    return it->second;
  };
  if (mode == "recover") {
    return Recover(flag("data-dir"), flag("expect"), flag("out"));
  }
  if (mode != "run") Die("unknown mode " + mode);
  Options opt;
  opt.workload = flag("workload");
  opt.seed = std::strtoull(flag("seed").c_str(), nullptr, 10);
  opt.seconds = std::strtod(flag("seconds").c_str(), nullptr);
  opt.trace = flag("trace") == "1";
  auto port = [&](const char* name) {
    return static_cast<uint16_t>(std::strtoul(flag(name).c_str(), nullptr, 10));
  };
  opt.port = port("port");
  opt.setup_port = port("setup-port");
  opt.out = flag("out");
  if (opt.seconds <= 0 || opt.port == 0 || opt.setup_port == 0) {
    Die("--seconds, --port and --setup-port must be positive");
  }
  return Run(opt);
}
