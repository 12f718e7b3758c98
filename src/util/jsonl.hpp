#pragma once
// Shared JSONL (one JSON document per line) plumbing.
//
// Every machine-readable line the library emits (batch reports, telemetry,
// traces, bench reports) goes through these helpers, so escaping is
// hardened in ONE place:
//
//   escape()        string body -> JSON string escaping (quotes, backslashes,
//                   \n/\r/\t, \u00XX control codes; non-ASCII UTF-8 bytes
//                   pass through verbatim — they are valid JSON).
//                   tests/test_util.cpp checks the spelling of every byte.
//   well_formed()   strict syntax check of any JSON document (nesting
//                   allowed, up to 64 levels) for the documents the library
//                   emits. Numbers follow the strict JSON grammar (no
//                   inf/nan/hex, no leading zeros, no bare trailing dot).

#include <string>

namespace olp::jsonl {

/// JSON string escaping of an arbitrary byte string (see file comment).
std::string escape(const std::string& raw);

/// Strict JSON well-formedness check (syntax only; duplicate keys allowed).
/// On failure returns false and, when `error` is non-null, a short
/// description with the byte offset.
bool well_formed(const std::string& text, std::string* error = nullptr);

}  // namespace olp::jsonl
