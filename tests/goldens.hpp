#pragma once
// Bitwise goldens. Every value a test pins bit for bit is one line of
// tests/goldens.txt, `<key> <field>=<value> ...`, for example
// `flow/ota/optimize/s1 hash=0x... testbenches=990 checks=60895`.
//
// A test makes one Goldens for the key prefix it owns and calls check() once
// per pinned quantity. check() fails, naming the key and the observed value,
// when the file holds other values or lacks the key; when the test ends, a
// key under the prefix that it never checked fails too. Nothing turns a
// check off. Every run, failing or not, writes what it observed to
// <build>/tests/goldens/<Suite>.<Test>.txt (one file per test, because ctest
// runs each test in its own process). After a full ctest, a deliberate
// re-baseline is
//
//   cat build/tests/goldens/*.txt > tests/goldens.txt
//
// and `git diff tests/goldens.txt` lists the moved values. A renamed or
// deleted test leaves its old file behind: remove build/tests/goldens first.
//
// Fnv1a is the one hash behind the goldens: 64-bit FNV-1a over integers and
// double bit patterns fed little-endian, and strings after their length, so
// a value is the same on any host.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace olp {

class Fnv1a {
 public:
  void u64(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(w >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t w;
    std::memcpy(&w, &v, sizeof w);
    u64(w);
  }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) { h_ = (h_ ^ b) * 1099511628211ULL; }

  std::uint64_t h_ = 14695981039346656037ULL;
};

/// "0x" and 16 lowercase hex digits.
inline std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// A golden line's fields, in the order they are written.
using GoldenFields = std::vector<std::pair<std::string, std::string>>;

/// goldens.txt as read: each key's fields as written, and one message per
/// line that is not `key field=value ...` or that repeats a key.
struct GoldenFile {
  std::map<std::string, std::string> lines;
  std::vector<std::string> errors;
};

inline GoldenFile parse_goldens(std::istream& in) {
  static const std::regex kLine(R"([^\s=]+( [^\s=]+=[^\s=]+)+)");
  GoldenFile file;
  std::string line;
  for (int n = 1; std::getline(in, line); ++n) {
    const std::string where = "line " + std::to_string(n) + ": ";
    const std::size_t space = line.find(' ');
    if (!std::regex_match(line, kLine)) {
      file.errors.push_back(where + "not `key field=value ...`: " + line);
    } else if (!file.lines.emplace(line.substr(0, space),
                                   line.substr(space + 1)).second) {
      file.errors.push_back(where + "repeats the key " +
                            line.substr(0, space));
    }
  }
  return file;
}

/// tests/goldens.txt, read once per process. Goldens.FileIsWellFormed
/// reports its errors.
inline const GoldenFile& goldens_file() {
  static const GoldenFile file = [] {
    std::ifstream in(OLP_GOLDENS_FILE);
    GoldenFile read = parse_goldens(in);
    if (!in.is_open()) read.errors.push_back("cannot be read");
    return read;
  }();
  return file;
}

/// The running test's view of the keys under one prefix (one per test).
class Goldens {
 public:
  explicit Goldens(std::string prefix) : prefix_(std::move(prefix)) {}
  Goldens(const Goldens&) = delete;
  Goldens& operator=(const Goldens&) = delete;

  /// Records prefix + key with the observed fields and expects goldens.txt
  /// to hold exactly them.
  void check(const std::string& key, const GoldenFields& observed) {
    const std::string full = prefix_ + key;
    std::string fields;
    for (const auto& [name, value] : observed) {
      fields += (fields.empty() ? "" : " ") + name + "=" + value;
    }
    observed_ += full + " " + fields + "\n";
    const auto it = goldens_file().lines.find(full);
    if (!checked_.insert(full).second) {
      ADD_FAILURE() << full << " is checked twice";
    } else if (it == goldens_file().lines.end()) {
      ADD_FAILURE() << full << " is not in goldens.txt; observed " << fields;
    } else if (it->second != fields) {
      ADD_FAILURE() << full << ": observed " << fields << "; goldens.txt has "
                    << it->second;
    }
  }

  /// Fails for every key of the file under the prefix that was not checked,
  /// and writes the observed lines into the build tree.
  ~Goldens() {
    const auto& lines = goldens_file().lines;
    for (auto it = lines.lower_bound(prefix_);
         it != lines.end() && it->first.starts_with(prefix_); ++it) {
      if (!checked_.count(it->first)) {
        ADD_FAILURE() << it->first << " is in goldens.txt but not observed";
      }
    }
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::filesystem::path dir = OLP_GOLDENS_OBSERVED_DIR;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::filesystem::path path =
        dir / (std::string(test->test_suite_name()) + "." + test->name() +
               ".txt");
    std::ofstream out(path);
    out << observed_;
    out.close();
    if (!out) ADD_FAILURE() << "cannot write " << path;
  }

 private:
  std::string prefix_;
  std::set<std::string> checked_;
  std::string observed_;
};

}  // namespace olp
