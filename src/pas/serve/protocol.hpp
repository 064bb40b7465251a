// The pasim_serve wire protocol: newline-delimited JSON over a
// Unix-domain or localhost-TCP stream (DESIGN.md §13).
//
// Requests, one JSON object per line:
//
//   {"op":"ping"}
//   {"op":"stats"}
//   {"op":"shutdown"}
//   {"op":"sweep","spec":{...}}     spec = canonical SweepSpec JSON
//
// Responses:
//
//   ping / shutdown   {"ok":true,"op":<op>}
//   stats             {"ok":true,"op":"stats","stats":{...}}
//   any error         {"ok":false,"error":<message>}
//   sweep             a header line
//                       {"ok":true,"op":"sweep","points":N}
//                     then N point lines in grid order (nodes-major,
//                     frequency-minor — the exact order an offline
//                     SweepExecutor::run() emits), then a trailer
//                       {"done":true,"points":N,
//                        "cache_hits":H,"dedup_hits":D}
//
// Each point line carries the full RunRecord as a JSON string in the
// sweep journal's status/error framing around the hex-float RunCache
// bytes (cas_encode_record), so the record a client decodes is
// bit-identical — status and diagnostic included — to what an offline
// sweep of the same spec produces. Bare encode_record cannot carry a
// status, and a deterministic failure (a fault abort) is an answer
// like any other. The byte-identical-artifacts oracle rests on this
// transport being exact.
#pragma once

#include <cstddef>
#include <string>

#include "pas/analysis/run_matrix.hpp"
#include "pas/util/json.hpp"

namespace pas::serve {

/// {"ok":false,"error":<message>} plus the terminating newline.
std::string error_line(const std::string& message);

/// {"ok":true,"op":<op>} plus the terminating newline.
std::string ok_line(const std::string& op);

/// One decoded sweep-response point.
struct PointLine {
  std::size_t index = 0;
  bool from_cache = false;
  analysis::RunRecord record;
};

/// Serializes grid point `index` (newline included). `from_cache`
/// tells the client whether the broker answered from the shared
/// run cache / journal instead of simulating.
std::string encode_point_line(std::size_t index,
                              const analysis::RunRecord& record,
                              bool from_cache);

/// Parses what encode_point_line produced. False on any missing,
/// mistyped or undecodable member.
bool decode_point_line(const util::Json& line, PointLine* out);

/// A point line's `record` member: the journal's status/error framing
/// followed by the RunCache::encode_record bytes —
///
///   status <RunStatus int>\n
///   error <bytes>\n<raw error text>\n
///   <encode_record bytes>
///
/// so a deterministic-failure record reaches the client exactly as it
/// sits in the journal, status and diagnostic intact.
std::string cas_encode_record(const analysis::RunRecord& record);

/// Parses what cas_encode_record produced. False on any malformed
/// field; `record` is unspecified then.
bool cas_decode_record(const std::string& payload,
                       analysis::RunRecord* record);

}  // namespace pas::serve
