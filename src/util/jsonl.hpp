#pragma once
// Shared JSONL (one JSON document per line) plumbing.
//
// Every machine-readable line the library emits (batch reports, service
// responses, telemetry) and every line it ingests (service requests) goes
// through these helpers, so escaping is hardened in ONE place:
//
//   escape()        string body -> JSON string escaping (quotes, backslashes,
//                   \n/\r/\t, \u00XX control codes; non-ASCII UTF-8 bytes
//                   pass through verbatim — they are valid JSON).
//   unescape()      exact inverse, including \uXXXX (with UTF-16 surrogate
//                   pairs) decoded to UTF-8. escape/unescape round-trip any
//                   byte string (tests/test_util.cpp proves it).
//   parse_object()  strict parser for one FLAT JSON object — string, number,
//                   boolean and null members only, no nesting — which is
//                   exactly the shape of a service request line. Numbers
//                   follow the strict JSON grammar (no inf/nan/hex, no
//                   leading zeros, no bare trailing dot). Malformed input
//                   yields false plus a position-bearing error message,
//                   never an exception or a partial result.
//   well_formed()   strict syntax check of any JSON document (nesting
//                   allowed, up to 64 levels) for the documents the library
//                   emits — traces, telemetry, bench reports. Shares the
//                   whitespace, string and number scanning with
//                   parse_object(), so every line parse_object() accepts is
//                   well formed.
//   LineFramer      byte-stream -> newline-delimited frames with a hard
//                   per-frame size bound. Tolerates torn frames (a partial
//                   line is held until its newline arrives or the stream
//                   ends) and sheds oversized ones: input past the bound is
//                   discarded until the next newline, then surfaced as one
//                   oversized marker frame so the transport can reject with
//                   a reason instead of buffering without limit.
//
// The deliberately tiny value model keeps the service protocol honest: a
// request is a flat bag of scalars, so misuse (nested payloads, duplicate
// keys) is rejected at the door instead of half-understood.

#include <cstddef>
#include <deque>
#include <map>
#include <string>

namespace olp::jsonl {

/// JSON string escaping of an arbitrary byte string (see file comment).
std::string escape(const std::string& raw);

/// Inverse of escape(): decodes every JSON escape, including \uXXXX and
/// surrogate pairs, to UTF-8 bytes. Returns false (and sets *error when
/// non-null) on any invalid escape; *out is untouched on failure.
bool unescape(const std::string& escaped, std::string* out,
              std::string* error = nullptr);

/// One scalar member of a flat JSON object.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;

  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_bool() const { return kind == Kind::kBool; }
};

using Object = std::map<std::string, Value>;

/// Parses one complete flat JSON object from `line` (surrounding whitespace
/// allowed, nothing else before or after). Duplicate keys and nested
/// objects/arrays are errors. On failure returns false, sets *error (when
/// non-null) and leaves *out empty.
bool parse_object(const std::string& line, Object* out,
                  std::string* error = nullptr);

/// Strict JSON well-formedness check (syntax only; duplicate keys allowed).
/// On failure returns false and, when `error` is non-null, a short
/// description with the byte offset.
bool well_formed(const std::string& text, std::string* error = nullptr);

/// Incremental newline framing over an arbitrary byte stream (see file
/// comment). Not thread-safe; one framer per connection.
class LineFramer {
 public:
  /// One extracted frame. `oversized` frames carry no content: the line
  /// exceeded the bound and its bytes were discarded (the stream itself
  /// stays in sync — framing resumes after the offending newline).
  struct Frame {
    std::string line;
    bool oversized = false;
  };

  /// `max_line_bytes` bounds one frame, newline excluded (0 = unbounded).
  explicit LineFramer(std::size_t max_line_bytes = 0)
      : max_line_bytes_(max_line_bytes) {}

  /// Appends raw bytes; complete frames become available via next().
  /// A trailing '\r' (CRLF clients) is stripped from each frame.
  void feed(const char* data, std::size_t n);

  /// Pops the next complete frame; false when none is pending.
  bool next(Frame* out);

  /// Bytes of the current incomplete (torn) frame — nonzero exactly when a
  /// line has started but its newline has not arrived. The transport uses
  /// this for slow-loris deadlines and for discarding torn frames on
  /// disconnect.
  std::size_t partial_bytes() const { return partial_.size(); }

  /// Drops the current partial frame (mid-frame disconnect).
  void discard_partial();

 private:
  std::size_t max_line_bytes_;
  std::string partial_;
  bool skipping_oversized_ = false;
  std::deque<Frame> ready_;
};

}  // namespace olp::jsonl
