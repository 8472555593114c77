// cxml_client: the CXP/1 command-line client — one net::Client round
// trip per invocation (qcoll/run chain two on one connection), results
// on stdout, errors (with their status code) on stderr.
//
// The usage text is generated from kCommands below — the same table
// main() dispatches on — so the help can never drift from what the
// binary actually accepts. Run with no arguments for the full synopsis.
//
// Notes on the less obvious commands:
//
// `prepare` compiles the expression server-side (QPREPARE) and prints
// the handle id; `run` demonstrates the full compile-once/bind-many
// round trip on one connection — QPREPARE followed by QRUN — since a
// prepared handle lives exactly as long as its connection. `qcoll`
// does the same but fans the prepared handle over every document
// matching a glob pattern (QCOLL), printing `<doc>\t<item>` rows.
//
// `import` uploads external markup (IMPORT): the server parses the
// file as TEI (default), strict XML, or lenient HTML into a
// multi-hierarchy GODDAG and registers it under <doc>.
//
// `promote` is the failover switch: it asks a --follow replica to stop
// tailing, seal its inherited WAL, and start accepting writes —
// printing the version frontier it promoted at. `fault` drives the
// server-side fault injector (requires a server started with --fault
// or --fault-seed).
//
// `sync` is the durability/replication dashboard: each document's
// current version as the WAL sees it (a zero-record SYNC probe per
// LISTed document; "-" when the server has no durability log), then
// every cxml_wal_* / cxml_repl_* row of the METRICS exposition — one
// invocation answers "is the WAL keeping up, and how far behind is
// the follower".
//
// `metrics` fetches the server's Prometheus-style exposition (METRICS)
// and prints it as an aligned name/value table, histogram buckets
// elided (--raw dumps the exposition verbatim, e.g. for scraping by
// hand). `trace` prints the newest n sampled request traces (default
// 10), each a per-stage timing tree.
//
// Exit status: 0 on success, 1 on a server/transport error, 2 on bad
// arguments.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/frame.h"

namespace {

using namespace cxml;

using Args = std::vector<std::string>;

int Fail(const Status& st) {
  std::fprintf(stderr, "cxml_client: %s\n", st.ToString().c_str());
  return 1;
}

/// One dispatchable command: the table below is the single source of
/// truth for both the usage text and main()'s dispatch.
struct Command {
  const char* name;
  /// Argument synopsis as shown in usage ("" for none).
  const char* synopsis;
  int (*handler)(net::Client& client, const Args& args);
};

extern const Command kCommands[];
extern const size_t kNumCommands;

int Usage() {
  std::fprintf(stderr, "usage: cxml_client --port N [--host H] <command>\n");
  for (size_t i = 0; i < kNumCommands; ++i) {
    std::fprintf(stderr, "  %s%s%s\n", kCommands[i].name,
                 kCommands[i].synopsis[0] == '\0' ? "" : " ",
                 kCommands[i].synopsis);
  }
  return 2;
}

// Renders the Prometheus exposition as an aligned two-column table,
// dropping comment lines and the per-bucket histogram series (the
// _count/_sum/_p50/_p90/_p99 rollups already summarize them).
void PrintMetricsTable(const std::string& exposition) {
  std::vector<std::pair<std::string, std::string>> rows;
  size_t width = 0;
  std::istringstream in(exposition);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.find("_bucket{") != std::string::npos) continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    rows.emplace_back(line.substr(0, space), line.substr(space + 1));
    width = std::max(width, rows.back().first.size());
  }
  for (const auto& [name, value] : rows) {
    std::printf("%-*s  %s\n", static_cast<int>(width), name.c_str(),
                value.c_str());
  }
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Parses a numeric argument of decimal digits that fits `T`.
/// Signs, blanks, trailing garbage and overflow are rejected, so a typo
/// earns usage instead of a silently different request.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  uint64_t value = 0;
  if (!net::ParseDecimalU64(text, &value) ||
      value > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

/// Parses the "xpath" | "xquery" token; false earns usage.
bool ParseKind(const std::string& token, service::QueryKind* kind) {
  if (token == "xpath") {
    *kind = service::QueryKind::kXPath;
    return true;
  }
  if (token == "xquery") {
    *kind = service::QueryKind::kXQuery;
    return true;
  }
  return false;
}

void PrintItems(const net::Response& response) {
  for (const std::string& item : response.items) {
    std::printf("%s\n", item.c_str());
  }
}

// ------------------------------------------------------------ handlers

int CmdPing(net::Client& client, const Args& args) {
  if (!args.empty()) return Usage();
  Status st = client.Ping();
  if (!st.ok()) return Fail(st);
  std::printf("pong\n");
  return 0;
}

int CmdList(net::Client& client, const Args& args) {
  if (!args.empty()) return Usage();
  auto lines = client.List();
  if (!lines.ok()) return Fail(lines.status());
  for (const std::string& line : *lines) std::printf("%s\n", line.c_str());
  return 0;
}

int CmdStat(net::Client& client, const Args& args) {
  if (!args.empty()) return Usage();
  auto lines = client.Stat();
  if (!lines.ok()) return Fail(lines.status());
  for (const std::string& line : *lines) std::printf("%s\n", line.c_str());
  return 0;
}

int CmdQuery(net::Client& client, const Args& args) {
  service::QueryKind kind;
  if (args.size() != 3 || !ParseKind(args[1], &kind)) return Usage();
  auto response = client.Query(args[0], args[2], kind);
  if (!response.ok()) return Fail(response.status());
  PrintItems(*response);
  std::fprintf(stderr, "# version %llu, %zu item(s), cache %s\n",
               static_cast<unsigned long long>(response->version),
               response->items.size(),
               response->cache_hit ? "hit" : "miss");
  return 0;
}

int CmdPrepare(net::Client& client, const Args& args) {
  service::QueryKind kind;
  if (args.size() != 2 || !ParseKind(args[0], &kind)) return Usage();
  auto qid = client.Prepare(kind, args[1]);
  if (!qid.ok()) return Fail(qid.status());
  std::printf("prepared %llu\n", static_cast<unsigned long long>(*qid));
  return 0;
}

int CmdRun(net::Client& client, const Args& args) {
  service::QueryKind kind;
  if (args.size() != 3 || !ParseKind(args[1], &kind)) return Usage();
  auto qid = client.Prepare(kind, args[2]);
  if (!qid.ok()) return Fail(qid.status());
  auto response = client.Run(args[0], *qid);
  if (!response.ok()) return Fail(response.status());
  PrintItems(*response);
  std::fprintf(stderr,
               "# prepared %llu, version %llu, %zu item(s), cache %s\n",
               static_cast<unsigned long long>(*qid),
               static_cast<unsigned long long>(response->version),
               response->items.size(),
               response->cache_hit ? "hit" : "miss");
  return 0;
}

int CmdQcoll(net::Client& client, const Args& args) {
  // prepare + QCOLL on the one connection the handle is bound to.
  service::QueryKind kind;
  if (args.size() != 3 || !ParseKind(args[1], &kind)) return Usage();
  auto qid = client.Prepare(kind, args[2]);
  if (!qid.ok()) return Fail(qid.status());
  auto response = client.CollectionRun(args[0], *qid);
  if (!response.ok()) return Fail(response.status());
  PrintItems(*response);
  std::fprintf(stderr, "# %llu document(s) matched, %zu item(s)%s\n",
               static_cast<unsigned long long>(response->version),
               response->items.size(),
               response->cache_hit ? "" : " (truncated)");
  return 0;
}

int CmdEdit(net::Client& client, const Args& args) {
  if (args.size() < 4) return Usage();
  std::vector<net::EditOp> ops;
  for (size_t a = 1; a < args.size();) {
    size_t begin = 0;
    size_t end = 0;
    cmh::HierarchyId hierarchy = 0;
    if (args[a] == "select" && a + 2 < args.size() &&
        ParseNumber(args[a + 1], &begin) && ParseNumber(args[a + 2], &end)) {
      ops.push_back(net::EditOp::Select(begin, end));
      a += 3;
    } else if (args[a] == "apply" && a + 2 < args.size() &&
               ParseNumber(args[a + 1], &hierarchy)) {
      ops.push_back(net::EditOp::Apply(hierarchy, args[a + 2]));
      a += 3;
    } else {
      return Usage();
    }
  }
  auto version = client.Edit(args[0], std::move(ops));
  if (!version.ok()) return Fail(version.status());
  std::printf("committed version %llu\n",
              static_cast<unsigned long long>(*version));
  return 0;
}

int CmdRegister(net::Client& client, const Args& args) {
  if (args.size() != 2) return Usage();
  auto bytes = ReadFile(args[1]);
  if (!bytes.ok()) return Fail(bytes.status());
  auto version = client.Register(args[0], std::move(bytes).value());
  if (!version.ok()) return Fail(version.status());
  std::printf("registered '%s' at version %llu\n", args[0].c_str(),
              static_cast<unsigned long long>(*version));
  return 0;
}

int CmdImport(net::Client& client, const Args& args) {
  if (args.size() < 2 || args.size() > 3) return Usage();
  std::string format = args.size() == 3 ? args[2] : "tei";
  if (format != "tei" && format != "xml" && format != "html") return Usage();
  auto bytes = ReadFile(args[1]);
  if (!bytes.ok()) return Fail(bytes.status());
  auto version =
      client.Import(args[0], format, std::move(bytes).value());
  if (!version.ok()) return Fail(version.status());
  std::printf("imported '%s' (%s) at version %llu\n", args[0].c_str(),
              format.c_str(), static_cast<unsigned long long>(*version));
  return 0;
}

int CmdRemove(net::Client& client, const Args& args) {
  if (args.size() != 1) return Usage();
  Status st = client.Remove(args[0]);
  if (!st.ok()) return Fail(st);
  std::printf("removed '%s'\n", args[0].c_str());
  return 0;
}

int CmdMetrics(net::Client& client, const Args& args) {
  if (!(args.empty() || (args.size() == 1 && args[0] == "--raw"))) {
    return Usage();
  }
  auto exposition = client.Metrics();
  if (!exposition.ok()) return Fail(exposition.status());
  if (!args.empty()) {
    std::fputs(exposition->c_str(), stdout);
  } else {
    PrintMetricsTable(*exposition);
  }
  return 0;
}

int CmdTrace(net::Client& client, const Args& args) {
  if (args.size() > 1) return Usage();
  uint64_t n = 10;
  if (!args.empty()) {
    if (!ParseNumber(args[0], &n) || n == 0) return Usage();
  }
  auto traces = client.Traces(n);
  if (!traces.ok()) return Fail(traces.status());
  if (traces->empty()) {
    std::fprintf(stderr, "# no sampled traces retained yet\n");
    return 0;
  }
  for (const std::string& trace : *traces) {
    std::fputs(trace.c_str(), stdout);
    if (trace.empty() || trace.back() != '\n') std::printf("\n");
  }
  return 0;
}

int CmdSync(net::Client& client, const Args& args) {
  if (!args.empty()) return Usage();
  auto docs = client.List();
  if (!docs.ok()) return Fail(docs.status());
  for (const std::string& doc : *docs) {
    // A probe from far beyond any real version ships no records but
    // answers with the primary's current version; ERR Unimplemented
    // means no WAL. (Not UINT64_MAX: the wire caps ints at 19
    // digits.)
    auto probe = client.Sync(doc, 999999999999999999ull);
    if (probe.ok()) {
      std::printf("doc %-24s version %llu\n", doc.c_str(),
                  static_cast<unsigned long long>(probe->version));
    } else {
      std::printf("doc %-24s version -\n", doc.c_str());
    }
  }
  auto exposition = client.Metrics();
  if (!exposition.ok()) return Fail(exposition.status());
  std::istringstream in(*exposition);
  std::string line;
  bool any = false;
  while (std::getline(in, line)) {
    if (line.rfind("cxml_wal_", 0) != 0 &&
        line.rfind("cxml_repl_", 0) != 0) {
      continue;
    }
    if (line.find("_bucket{") != std::string::npos) continue;
    std::printf("%s\n", line.c_str());
    any = true;
  }
  if (!any) {
    std::fprintf(stderr,
                 "# no WAL/replication metrics (server running without "
                 "--data-dir or --follow)\n");
  }
  return 0;
}

int CmdPromote(net::Client& client, const Args& args) {
  if (!args.empty()) return Usage();
  auto frontier = client.Promote();
  if (!frontier.ok()) return Fail(frontier.status());
  std::printf("promoted at version frontier %llu\n",
              static_cast<unsigned long long>(*frontier));
  return 0;
}

int CmdFault(net::Client& client, const Args& args) {
  // Map the lowercase CLI sub-commands onto the wire's uppercase
  // FAULT actions; arity is validated here so a typo earns usage
  // instead of a server-side parse error.
  std::string action;
  std::string point;
  std::string spec;
  if (args.size() == 1 && args[0] == "list") {
    action = "LIST";
  } else if (args.size() == 1 && args[0] == "clear") {
    action = "CLEAR";
  } else if (args.size() == 2 && args[0] == "seed") {
    action = "SEED";
    spec = args[1];
  } else if (args.size() == 3 && args[0] == "arm") {
    action = "ARM";
    point = args[1];
    spec = args[2];
  } else if (args.size() == 2 && args[0] == "disarm") {
    action = "DISARM";
    point = args[1];
  } else {
    return Usage();
  }
  auto response = client.Fault(action, point, spec);
  if (!response.ok()) return Fail(response.status());
  if (action == "LIST") {
    if (response->items.empty()) {
      std::printf("# no fault points armed (seed %llu)\n",
                  static_cast<unsigned long long>(response->version));
    }
    for (const std::string& item : response->items) {
      std::printf("%s\n", item.c_str());
    }
  } else {
    std::printf("ok\n");
  }
  return 0;
}

// --------------------------------------------------------- the table

const Command kCommands[] = {
    {"ping", "", CmdPing},
    {"list", "", CmdList},
    {"stat", "", CmdStat},
    {"query", "<doc> <xpath|xquery> <expr>", CmdQuery},
    {"prepare", "<xpath|xquery> <expr>", CmdPrepare},
    {"run", "<doc> <xpath|xquery> <expr>", CmdRun},
    {"qcoll", "<pattern> <xpath|xquery> <expr>", CmdQcoll},
    {"edit", "<doc> (select <begin> <end> | apply <hierarchy> <tag>)...",
     CmdEdit},
    {"register", "<doc> <cxg1-file>", CmdRegister},
    {"import", "<doc> <markup-file> [tei|xml|html]", CmdImport},
    {"remove", "<doc>", CmdRemove},
    {"metrics", "[--raw]", CmdMetrics},
    {"trace", "[n]", CmdTrace},
    {"sync", "", CmdSync},
    {"promote", "", CmdPromote},
    {"fault",
     "(list | arm <point> <spec> | disarm <point> | clear | seed <n>)",
     CmdFault},
};
const size_t kNumCommands = sizeof(kCommands) / sizeof(kCommands[0]);

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int i = 1;
  for (; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &port)) return Usage();
    } else {
      break;
    }
  }
  if (i >= argc || port == 0) return Usage();
  std::string command = argv[i++];
  Args args(argv + i, argv + argc);

  const Command* found = nullptr;
  for (size_t c = 0; c < kNumCommands; ++c) {
    if (command == kCommands[c].name) {
      found = &kCommands[c];
      break;
    }
  }
  if (found == nullptr) return Usage();

  auto connected = net::Client::Connect(host, port);
  if (!connected.ok()) return Fail(connected.status());
  net::Client client = std::move(connected).value();
  return found->handler(client, args);
}
