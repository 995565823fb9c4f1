#ifndef RRRE_SERVE_PROTOCOL_H_
#define RRRE_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace rrre::serve {

/// The rrre_served line protocol (one request per '\n'-terminated line,
/// fields tab-separated; CRLF accepted):
///
///   request   := pair | catalog | control | comment | blank
///   pair      := INT '\t' INT        -- user, item
///   catalog   := INT                 -- user, scored against every item
///   control   := "PING" | "STATS" | "METRICS" | "RELOAD" | "QUIT"
///   comment   := '#' ...             -- ignored, no response
///
/// Every pair/catalog/control request gets exactly one response, written in
/// request order per connection (pipelining is allowed and encouraged):
///
///   pair    -> "user \t item \t rating \t reliability"   (%.17g floats,
///              byte-identical to the offline rrre_serve TSV rows)
///   catalog -> "#catalog \t user \t count" followed by `count` pair lines
///   PING    -> "#pong"
///   STATS   -> "#stats \t key=value ..."  (includes users=, items=,
///              version=)
///   METRICS -> "#metrics \t lines=N" followed by N lines of Prometheus-style
///              text exposition (counters, gauges, histogram summaries); the
///              scrape itself does not move any exposed metric, so two
///              scrapes with no intervening traffic are byte-identical
///   RELOAD  -> "#reloaded \t version=N" after the checkpoint swap
///   QUIT    -> "#bye", then the server closes the connection
///
/// Errors are one line: "!ERR \t code \t message" with codes `parse`,
/// `range`, `overload`, `reload`, `busy` (connection limit), `upstream`
/// (the router exhausted every replica) and `metrics` (metrics disabled).
/// An overloaded server answers `!ERR overload` immediately instead of
/// queueing unboundedly. A line longer than LineReader::kMaxLineBytes is
/// answered `!ERR parse` and the connection is closed.
struct Request {
  enum class Type {
    kBlank,    ///< Empty line or comment — no response.
    kPair,     ///< Score (user, item).
    kCatalog,  ///< Score user against the full item catalog.
    kPing,
    kStats,
    kMetrics,
    kReload,
    kQuit,
    kInvalid,  ///< Syntax error; `error` says why.
  };
  Type type = Type::kInvalid;
  int64_t user = -1;
  int64_t item = -1;
  std::string error;
};

/// Parses one protocol line (without its terminator). Range validation is
/// the server's job — this only checks syntax.
Request ParseRequest(std::string_view line);

/// "user \t item \t rating \t reliability \n" with %.17g floats — the exact
/// row format of offline rrre_serve output, so online and offline scores can
/// be compared byte-for-byte.
std::string FormatScoreLine(int64_t user, int64_t item, double rating,
                            double reliability);

std::string FormatCatalogHeader(int64_t user, int64_t count);
/// "#metrics \t lines=N"; the N exposition lines follow verbatim.
std::string FormatMetricsHeader(int64_t lines);
std::string FormatError(std::string_view code, std::string_view message);
std::string FormatPong();
std::string FormatBye();
std::string FormatReloaded(int64_t version);

/// The STATS fields readers use. A server line carries users=, items=,
/// generation= and fingerprint=; a router line carries users=, items=,
/// fingerprint= and quarantined=. A field the line lacks stays 0.
struct StatsLine {
  int64_t users = 0;
  int64_t items = 0;
  int64_t generation = 0;
  uint64_t fingerprint = 0;
  int64_t quarantined = 0;
};

/// Parses a STATS response (sans terminator). Refuses a line without the
/// "#stats\t" prefix and a known field whose value is not a whole decimal
/// number; ignores unknown fields.
common::Result<StatsLine> ParseStatsLine(std::string_view line);

/// True when `line` (sans terminator) is an error response.
bool IsErrorLine(std::string_view line);
/// True for "!ERR \t overload \t ..." specifically.
bool IsOverloadLine(std::string_view line);

}  // namespace rrre::serve

#endif  // RRRE_SERVE_PROTOCOL_H_
