// Shared exit-code convention for the command-line tools (examples/ and
// tools/), asserted by scripts/smoke_tools.sh:
//
//   0  success
//   1  domain failure (scan raised, daemon refused, results wrong)
//   2  bad arguments  (usage error; nothing was attempted)
//   3  I/O failure    (file missing/unreadable/unwritable, connect failed)
//
// Scripts branch on these: a 2 means fix the invocation, a 3 means fix
// the environment, a 1 means investigate the run.
//
// Port and HOST:PORT arguments go through the strict parsers below, so a
// mistyped port is a 2 instead of a bind or dial on some other port.
#pragma once

#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>

#include "util/error.hpp"

namespace finehmm::tools {

inline constexpr int kOk = 0;
inline constexpr int kFailure = 1;
inline constexpr int kBadArgs = 2;
inline constexpr int kIoError = 3;

/// Map a caught exception to the convention: IoError -> kIoError,
/// everything else -> kFailure.  Prints the message to stderr.
inline int report_exception(const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return dynamic_cast<const IoError*>(&e) != nullptr ? kIoError : kFailure;
}

/// A port argument: decimal digits only, value in [min_port, 65535].
/// Listen ports take min_port 0 (0 = kernel-picked); dial targets 1.
inline std::optional<std::uint16_t> parse_port(const std::string& s,
                                               std::uint32_t min_port) {
  if (s.empty()) return std::nullopt;
  std::uint32_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint32_t>(c - '0');
    if (value > 65535) return std::nullopt;
  }
  if (value < min_port) return std::nullopt;
  return static_cast<std::uint16_t>(value);
}

struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// A dial target "HOST:PORT": non-empty host, port in [1, 65535].
inline std::optional<HostPort> parse_host_port(const std::string& s) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  const std::optional<std::uint16_t> port = parse_port(s.substr(colon + 1), 1);
  if (!port) return std::nullopt;
  return HostPort{s.substr(0, colon), *port};
}

}  // namespace finehmm::tools
