// Tests for tests/goldens.txt and its reader: the file is well formed, and
// the reader rejects a repeated key and every line that is not
// `key field=value ...`.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "goldens.hpp"

namespace olp {
namespace {

TEST(Goldens, FileIsWellFormed) {
  const GoldenFile& file = goldens_file();
  EXPECT_EQ(file.errors, std::vector<std::string>{});
  EXPECT_FALSE(file.lines.empty());
}

TEST(Goldens, ReaderRejectsRepeatedKeysAndMalformedLines) {
  std::istringstream in(
      "a/b hash=0x1 count=2\n"
      "a/b hash=0x2\n"          // the key again
      "a/c\n"                   // no field
      "a/d hash\n"              // no value
      "a/e =1\n"                // no field name
      "a/f hash=\n"             // empty value
      "a/g hash=1  count=2\n"   // two spaces
      "a=i hash=1\n"            // '=' in the key
      "\n"                      // empty line
      "a/j hash=1 \n"           // trailing space
      "a/k hash=1=2\n");        // '=' in the value
  const GoldenFile file = parse_goldens(in);
  ASSERT_EQ(file.errors.size(), 10u);
  EXPECT_EQ(file.errors[0], "line 2: repeats the key a/b");
  for (std::size_t i = 1; i < file.errors.size(); ++i) {
    const std::string want =
        "line " + std::to_string(i + 2) + ": not `key field=value ...`";
    EXPECT_EQ(file.errors[i].substr(0, want.size()), want);
  }
  ASSERT_EQ(file.lines.size(), 1u);
  EXPECT_EQ(file.lines.at("a/b"), "hash=0x1 count=2");
}

}  // namespace
}  // namespace olp
