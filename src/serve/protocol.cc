#include "serve/protocol.h"

#include <cstdlib>

#include "common/strings.h"

namespace rrre::serve {

namespace {

/// Strict base-10 parse, rejecting trailing junk — same contract as the
/// offline request reader, so a mangled id errors instead of mis-scoring.
bool ParseId(std::string_view field, int64_t* out) {
  if (field.empty()) return false;
  const std::string s(field);
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

Request ParseRequest(std::string_view line) {
  Request req;
  if (line.empty() || line[0] == '#') {
    req.type = Request::Type::kBlank;
    return req;
  }
  if (common::Trim(line).empty()) {
    req.type = Request::Type::kBlank;
    return req;
  }
  if (line == "PING") {
    req.type = Request::Type::kPing;
    return req;
  }
  if (line == "STATS") {
    req.type = Request::Type::kStats;
    return req;
  }
  if (line == "METRICS") {
    req.type = Request::Type::kMetrics;
    return req;
  }
  if (line == "RELOAD") {
    req.type = Request::Type::kReload;
    return req;
  }
  if (line == "QUIT") {
    req.type = Request::Type::kQuit;
    return req;
  }
  const auto fields = common::Split(line, '\t');
  if (fields.size() != 1 && fields.size() != 2) {
    req.error = "expected 1 or 2 tab-separated fields, got " +
                std::to_string(fields.size());
    return req;
  }
  if (!ParseId(fields[0], &req.user)) {
    req.error = "bad user id \"" + fields[0] + "\"";
    return req;
  }
  if (fields.size() == 1) {
    req.type = Request::Type::kCatalog;
    return req;
  }
  if (!ParseId(fields[1], &req.item)) {
    req.error = "bad item id \"" + fields[1] + "\"";
    return req;
  }
  req.type = Request::Type::kPair;
  return req;
}

std::string FormatScoreLine(int64_t user, int64_t item, double rating,
                            double reliability) {
  return common::StrFormat("%lld\t%lld\t%.17g\t%.17g\n",
                           static_cast<long long>(user),
                           static_cast<long long>(item), rating, reliability);
}

std::string FormatCatalogHeader(int64_t user, int64_t count) {
  return common::StrFormat("#catalog\t%lld\t%lld\n",
                           static_cast<long long>(user),
                           static_cast<long long>(count));
}

std::string FormatMetricsHeader(int64_t lines) {
  return common::StrFormat("#metrics\tlines=%lld\n",
                           static_cast<long long>(lines));
}

std::string FormatError(std::string_view code, std::string_view message) {
  std::string out = "!ERR\t";
  out.append(code);
  out.push_back('\t');
  out.append(message);
  out.push_back('\n');
  return out;
}

std::string FormatPong() { return "#pong\n"; }

std::string FormatBye() { return "#bye\n"; }

std::string FormatReloaded(int64_t version) {
  return common::StrFormat("#reloaded\tversion=%lld\n",
                           static_cast<long long>(version));
}

common::Result<StatsLine> ParseStatsLine(std::string_view line) {
  constexpr std::string_view kPrefix = "#stats\t";
  if (!common::StartsWith(line, kPrefix)) {
    return common::Status::InvalidArgument("not a STATS response: " +
                                           std::string(line));
  }
  StatsLine out;
  for (const std::string& field :
       common::Split(line.substr(kPrefix.size()), '\t')) {
    const std::string_view kv(field);
    const size_t eq = kv.find('=');
    const std::string_view key = kv.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : kv.substr(eq + 1);
    bool ok = true;
    if (key == "users") {
      ok = common::ParseWholeNumber(value, &out.users);
    } else if (key == "items") {
      ok = common::ParseWholeNumber(value, &out.items);
    } else if (key == "generation") {
      ok = common::ParseWholeNumber(value, &out.generation);
    } else if (key == "fingerprint") {
      ok = common::ParseWholeNumber(value, &out.fingerprint);
    } else if (key == "quarantined") {
      ok = common::ParseWholeNumber(value, &out.quarantined);
    }
    if (!ok) {
      return common::Status::InvalidArgument(
          "STATS field \"" + field + "\" is not a whole number");
    }
  }
  return out;
}

bool IsErrorLine(std::string_view line) {
  return common::StartsWith(line, "!ERR\t");
}

bool IsOverloadLine(std::string_view line) {
  return common::StartsWith(line, "!ERR\toverload\t");
}

}  // namespace rrre::serve
