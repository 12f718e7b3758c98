// Unit tests for src/util: errors, intervals, curvature, units, tables, RNG.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "util/curvature.hpp"
#include "util/diag.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/faults.hpp"
#include "util/interval.hpp"
#include "util/jsonl.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/trace_export.hpp"
#include "util/units.hpp"

namespace olp {
namespace {

// --- error ------------------------------------------------------------------

TEST(Error, CheckMacroThrowsInvalidArgument) {
  EXPECT_THROW(OLP_CHECK(false, "boom"), InvalidArgumentError);
  EXPECT_NO_THROW(OLP_CHECK(true, "fine"));
}

TEST(Error, CheckMessageContainsContext) {
  try {
    OLP_CHECK(1 == 2, "my message");
    FAIL() << "expected throw";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("my message"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, AssertThrowsInternalError) {
  EXPECT_THROW(OLP_ASSERT(false, "bug"), InternalError);
}

TEST(Error, ParseErrorCarriesLine) {
  ParseError e("bad token", 42);
  EXPECT_EQ(e.line(), 42);
  EXPECT_NE(std::string(e.what()).find("42"), std::string::npos);
}

// --- interval ---------------------------------------------------------------

TEST(WireInterval, ContainsBounded) {
  WireInterval iv{2, 5};
  EXPECT_FALSE(iv.contains(1));
  EXPECT_TRUE(iv.contains(2));
  EXPECT_TRUE(iv.contains(5));
  EXPECT_FALSE(iv.contains(6));
}

TEST(WireInterval, ContainsUnbounded) {
  WireInterval iv{3, std::nullopt};
  EXPECT_FALSE(iv.contains(2));
  EXPECT_TRUE(iv.contains(3));
  EXPECT_TRUE(iv.contains(1000));
  EXPECT_FALSE(iv.bounded());
}

TEST(WireInterval, ToString) {
  EXPECT_EQ((WireInterval{2, 5}.to_string()), "[2, 5]");
  EXPECT_EQ((WireInterval{1, std::nullopt}.to_string()), "[1, inf]");
}

TEST(Reconcile, OverlappingTakesMaxLowerBound) {
  // Paper Sec. III-B2: overlapping intervals choose max(w_min,i).
  const IntervalReconciliation r =
      reconcile({WireInterval{1, 5}, WireInterval{3, 6}});
  EXPECT_TRUE(r.overlap);
  EXPECT_EQ(r.chosen, 3);
}

TEST(Reconcile, UnboundedAlwaysOverlaps) {
  // Paper example: net 3 with w_min 1 (DP) and 4 (CM), no upper bound.
  const IntervalReconciliation r = reconcile(
      {WireInterval{1, std::nullopt}, WireInterval{4, std::nullopt}});
  EXPECT_TRUE(r.overlap);
  EXPECT_EQ(r.chosen, 4);
}

TEST(Reconcile, DisjointYieldsGapRange) {
  // [min(w_max,i), max(w_min,i)] must be re-simulated.
  const IntervalReconciliation r =
      reconcile({WireInterval{1, 2}, WireInterval{5, 8}});
  EXPECT_FALSE(r.overlap);
  EXPECT_EQ(r.gap_lo, 2);
  EXPECT_EQ(r.gap_hi, 5);
}

TEST(Reconcile, SingleInterval) {
  const IntervalReconciliation r = reconcile({WireInterval{4, 7}});
  EXPECT_TRUE(r.overlap);
  EXPECT_EQ(r.chosen, 4);
}

TEST(Reconcile, ThreeWayOverlap) {
  const IntervalReconciliation r = reconcile(
      {WireInterval{2, 8}, WireInterval{3, 9}, WireInterval{1, 7}});
  EXPECT_TRUE(r.overlap);
  EXPECT_EQ(r.chosen, 3);
}

TEST(Reconcile, EmptyThrows) {
  EXPECT_THROW(reconcile({}), InvalidArgumentError);
}

TEST(Reconcile, BadIntervalThrows) {
  EXPECT_THROW(reconcile({WireInterval{0, 3}}), InvalidArgumentError);
  EXPECT_THROW(reconcile({WireInterval{5, 3}}), InvalidArgumentError);
}

// --- curvature / tuning stop ------------------------------------------------

TEST(Curvature, ArgminFindsMinimum) {
  EXPECT_EQ(argmin({5.0, 4.0, 4.2, 4.1}), 1u);
}

TEST(Curvature, ArgminTieBreaksToFewestWires) {
  EXPECT_EQ(argmin({5.0, 4.0, 4.0, 4.0}), 1u);
}

TEST(Curvature, MonotoneDetection) {
  EXPECT_TRUE(is_monotone_decreasing({5, 4, 3, 3, 2.5}));
  EXPECT_FALSE(is_monotone_decreasing({5, 4, 4.5, 3}));
}

TEST(Curvature, TuningStopUsesMinimumForUShapedCurve) {
  // Paper Table IV DP costs: minimum at w = 4 (index 3).
  const std::vector<double> costs = {5.17, 4.40, 4.23, 4.21, 4.25, 4.33, 4.42};
  EXPECT_EQ(tuning_stop_index(costs), 3u);
}

TEST(Curvature, TuningStopUsesKneeForMonotoneCurve) {
  // Exponential-style saturation: the knee is early, not at the end.
  const std::vector<double> costs = {29.3, 8.3, 4.1, 3.5, 3.2, 3.1, 3.0};
  const std::size_t stop = tuning_stop_index(costs);
  EXPECT_GE(stop, 1u);
  EXPECT_LE(stop, 3u);
}

TEST(Curvature, ShortCurves) {
  EXPECT_EQ(tuning_stop_index({1.0}), 0u);
  EXPECT_EQ(tuning_stop_index({2.0, 1.0}), 1u);
  EXPECT_THROW(tuning_stop_index({}), InvalidArgumentError);
}

// --- units ------------------------------------------------------------------

TEST(Units, EngineeringNotation) {
  EXPECT_EQ(units::eng(2.2e-14, "F"), "22fF");
  EXPECT_EQ(units::eng(5.1e9, "Hz"), "5.1GHz");
  EXPECT_EQ(units::eng(0.0), "0");
  EXPECT_EQ(units::eng(1.0, "V"), "1V");
  EXPECT_EQ(units::eng(-3.3e-3, "A"), "-3.3mA");
}

TEST(Units, LiteralsAreConsistent) {
  EXPECT_DOUBLE_EQ(units::um, 1e-6);
  EXPECT_DOUBLE_EQ(units::nm, 1e-9);
  EXPECT_DOUBLE_EQ(3.0 * units::fF, 3e-15);
  EXPECT_DOUBLE_EQ(2.0 * units::GHz, 2e9);
}

// --- table ------------------------------------------------------------------

TEST(TextTable, RendersAlignedCells) {
  TextTable t("title");
  t.set_header({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.render();
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("| 333 | 4  |"), std::string::npos);
}

TEST(TextTable, TrailingRuleIsTheClosingRule) {
  TextTable t;
  t.set_header({"a"});
  t.add_row({"1"});
  t.add_rule();
  EXPECT_EQ(t.render(), "+---+\n| a |\n+---+\n| 1 |\n+---+\n");
}

TEST(TextTable, ColumnCountEnforced) {
  TextTable t;
  t.add_row({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgumentError);
}

TEST(TextTable, FixedAndPct) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(pct(0.067), "6.7%");
  EXPECT_EQ(pct(1.217, 0), "122%");
}

// --- rng --------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

// --- diagnostics ------------------------------------------------------------

TEST(Diagnostics, SinkCollectsAndCounts) {
  DiagnosticsSink sink;
  EXPECT_TRUE(sink.empty());
  sink.report(DiagSeverity::kInfo, "flow", "setup", "starting");
  sink.report(DiagSeverity::kWarning, "router", "net1", "retry");
  sink.report(DiagSeverity::kWarning, "router", "net2", "retry");
  sink.report(DiagSeverity::kError, "router", "net2", "gave up");
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.count("router"), 3u);
  EXPECT_EQ(sink.count("router", "net2"), 2u);
  EXPECT_EQ(sink.count("flow"), 1u);
  EXPECT_EQ(sink.count("placer"), 0u);
}

TEST(Diagnostics, SeverityThresholds) {
  DiagnosticsSink sink;
  sink.report(DiagSeverity::kInfo, "flow", "s", "m");
  EXPECT_TRUE(sink.has_at_least(DiagSeverity::kInfo));
  EXPECT_FALSE(sink.has_at_least(DiagSeverity::kWarning));
  sink.report(DiagSeverity::kWarning, "flow", "s", "m");
  EXPECT_TRUE(sink.has_at_least(DiagSeverity::kWarning));
  EXPECT_FALSE(sink.has_at_least(DiagSeverity::kError));
}

TEST(Diagnostics, ToStringAndTake) {
  DiagnosticsSink sink;
  sink.report(DiagSeverity::kWarning, "router", "vout", "widened window");
  EXPECT_EQ(sink.diagnostics()[0].to_string(),
            "[warning] router/vout: widened window");
  const std::vector<Diagnostic> taken = sink.take();
  EXPECT_EQ(taken.size(), 1u);
  EXPECT_TRUE(sink.empty());
}

// --- fault injection --------------------------------------------------------

TEST(Faults, DisabledInjectorNeverFires) {
  FaultInjector& inj = FaultInjector::global();
  inj.disable();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.should_fail(FaultSite::kOpNonConvergence));
  }
}

TEST(Faults, RateZeroAndOneAreDegenerate) {
  FaultConfig config;
  config.op_rate = 1.0;
  config.tran_rate = 0.0;
  ScopedFaultInjection chaos(config);
  FaultInjector& inj = FaultInjector::global();
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(inj.should_fail(FaultSite::kOpNonConvergence));
    EXPECT_FALSE(inj.should_fail(FaultSite::kTranNonConvergence));
  }
  EXPECT_EQ(inj.fired(FaultSite::kOpNonConvergence), 50);
  EXPECT_EQ(inj.fired(FaultSite::kTranNonConvergence), 0);
  EXPECT_EQ(inj.draws(FaultSite::kTranNonConvergence), 50);
}

TEST(Faults, SameSeedSameFirePattern) {
  FaultConfig config;
  config.seed = 99;
  config.route_rate = 0.3;
  std::vector<bool> first;
  {
    ScopedFaultInjection chaos(config);
    for (int i = 0; i < 200; ++i) {
      first.push_back(FaultInjector::global().should_fail(
          FaultSite::kRouteFailure));
    }
  }
  {
    ScopedFaultInjection chaos(config);
    for (int i = 0; i < 200; ++i) {
      EXPECT_EQ(FaultInjector::global().should_fail(FaultSite::kRouteFailure),
                first[i])
          << i;
    }
  }
  // A 30% rate over 200 draws fires a plausible number of times.
  const long fired = FaultInjector::global().fired(FaultSite::kRouteFailure);
  EXPECT_GT(fired, 20);
  EXPECT_LT(fired, 120);
}

TEST(Faults, DifferentSeedsDiverge) {
  FaultConfig a;
  a.seed = 1;
  a.nan_metric_rate = 0.5;
  FaultConfig b = a;
  b.seed = 2;
  std::vector<bool> pa, pb;
  {
    ScopedFaultInjection chaos(a);
    for (int i = 0; i < 64; ++i) {
      pa.push_back(
          FaultInjector::global().should_fail(FaultSite::kNanMetric));
    }
  }
  {
    ScopedFaultInjection chaos(b);
    for (int i = 0; i < 64; ++i) {
      pb.push_back(
          FaultInjector::global().should_fail(FaultSite::kNanMetric));
    }
  }
  EXPECT_NE(pa, pb);
}

TEST(Faults, SkipDrawsAndFireCap) {
  FaultConfig config;
  config.op_rate = 1.0;
  config.skip_draws = 3;      // per-site: first three draws never fire
  config.max_total_fires = 2; // then at most two fires
  ScopedFaultInjection chaos(config);
  FaultInjector& inj = FaultInjector::global();
  std::vector<bool> fires;
  for (int i = 0; i < 8; ++i) {
    fires.push_back(inj.should_fail(FaultSite::kOpNonConvergence));
  }
  const std::vector<bool> expected = {false, false, false, true, true,
                                      false, false, false};
  EXPECT_EQ(fires, expected);
  EXPECT_EQ(inj.fired(FaultSite::kOpNonConvergence), 2);
  EXPECT_EQ(inj.draws(FaultSite::kOpNonConvergence), 8);
  EXPECT_EQ(inj.total_fired(), 2);
}

// --- env edge cases ---------------------------------------------------------

/// Sets an environment variable for one test body, restoring on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = ::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(Env, IntegerStrictParse) {
  {
    ScopedEnv e("OLP_TEST_INT", "42");
    EXPECT_EQ(env::integer("OLP_TEST_INT", 7), 42);
  }
  {
    ScopedEnv e("OLP_TEST_INT", "-3");
    EXPECT_EQ(env::integer("OLP_TEST_INT", 7), -3);
  }
  // Unset falls back.
  EXPECT_EQ(env::integer("OLP_TEST_INT", 7), 7);
}

TEST(Env, IntegerRejectsMalformedAndEmpty) {
  {
    ScopedEnv e("OLP_TEST_INT", "");
    EXPECT_EQ(env::integer("OLP_TEST_INT", 7), 7);
  }
  {
    ScopedEnv e("OLP_TEST_INT", "12abc");
    EXPECT_EQ(env::integer("OLP_TEST_INT", 7), 7);
  }
  {
    ScopedEnv e("OLP_TEST_INT", "abc");
    EXPECT_EQ(env::integer("OLP_TEST_INT", 7), 7);
  }
  {
    ScopedEnv e("OLP_TEST_INT", " ");
    EXPECT_EQ(env::integer("OLP_TEST_INT", 7), 7);
  }
}

TEST(Env, IntegerRejectsOverflow) {
  // strtol would saturate to LONG_MAX/LONG_MIN with errno=ERANGE; a
  // saturated limit silently applied is worse than the fallback.
  {
    ScopedEnv e("OLP_TEST_INT", "99999999999999999999999");
    EXPECT_EQ(env::integer("OLP_TEST_INT", 7), 7);
  }
  {
    ScopedEnv e("OLP_TEST_INT", "-99999999999999999999999");
    EXPECT_EQ(env::integer("OLP_TEST_INT", 7), 7);
  }
}

TEST(Env, NumberRejectsOverflowKeepsUnderflow) {
  {
    ScopedEnv e("OLP_TEST_NUM", "1e999");
    EXPECT_EQ(env::number("OLP_TEST_NUM", 2.5), 2.5);
  }
  {
    ScopedEnv e("OLP_TEST_NUM", "-1e999");
    EXPECT_EQ(env::number("OLP_TEST_NUM", 2.5), 2.5);
  }
  {
    // Underflow denormalizes toward zero — a usable value, not an error.
    ScopedEnv e("OLP_TEST_NUM", "1e-999");
    EXPECT_EQ(env::number("OLP_TEST_NUM", 2.5), 0.0);
  }
  {
    ScopedEnv e("OLP_TEST_NUM", "0.125");
    EXPECT_EQ(env::number("OLP_TEST_NUM", 2.5), 0.125);
  }
  {
    ScopedEnv e("OLP_TEST_NUM", "nope");
    EXPECT_EQ(env::number("OLP_TEST_NUM", 2.5), 2.5);
  }
}

TEST(Env, FlagMalformedFallsBack) {
  {
    ScopedEnv e("OLP_TEST_FLAG", "1");
    EXPECT_TRUE(env::flag("OLP_TEST_FLAG", false));
  }
  {
    ScopedEnv e("OLP_TEST_FLAG", "0");
    EXPECT_FALSE(env::flag("OLP_TEST_FLAG", true));
  }
  {
    // Any nonempty value not starting with '0' reads as on.
    ScopedEnv e("OLP_TEST_FLAG", "maybe");
    EXPECT_TRUE(env::flag("OLP_TEST_FLAG", false));
  }
  {
    // Empty reads as unset: the fallback wins.
    ScopedEnv e("OLP_TEST_FLAG", "");
    EXPECT_TRUE(env::flag("OLP_TEST_FLAG", true));
    EXPECT_FALSE(env::flag("OLP_TEST_FLAG", false));
  }
}

// --- jsonl ------------------------------------------------------------------

TEST(Jsonl, EscapeSpecialCharacters) {
  EXPECT_EQ(jsonl::escape("plain"), "plain");
  EXPECT_EQ(jsonl::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonl::escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(jsonl::escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(jsonl::escape("tab\there"), "tab\\there");
  EXPECT_EQ(jsonl::escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
  // Non-ASCII UTF-8 passes through verbatim (valid inside JSON strings).
  EXPECT_EQ(jsonl::escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(Jsonl, EscapeUnescapeRoundTripsArbitraryBytes) {
  const std::vector<std::string> cases = {
      "",
      "hello",
      "quote \" backslash \\ newline \n tab \t return \r",
      std::string("embedded\0nul", 12),
      "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac",  // é + CJK
      "\x01\x02\x1f control codes",
      "already \\u0041 escaped-looking text",
  };
  for (const std::string& raw : cases) {
    std::string back;
    ASSERT_TRUE(jsonl::unescape(jsonl::escape(raw), &back)) << raw;
    EXPECT_EQ(back, raw);
  }
}

TEST(Jsonl, UnescapeDecodesUnicodeEscapes) {
  std::string out;
  ASSERT_TRUE(jsonl::unescape("caf\\u00e9", &out));
  EXPECT_EQ(out, "caf\xc3\xa9");
  // Surrogate pair: U+1F600 -> 4-byte UTF-8.
  ASSERT_TRUE(jsonl::unescape("\\ud83d\\ude00", &out));
  EXPECT_EQ(out, "\xf0\x9f\x98\x80");
}

TEST(Jsonl, UnescapeRejectsMalformedEscapes) {
  std::string out;
  std::string error;
  EXPECT_FALSE(jsonl::unescape("dangling\\", &out, &error));
  EXPECT_FALSE(jsonl::unescape("\\q", &out, &error));
  EXPECT_FALSE(jsonl::unescape("\\u12", &out, &error));
  EXPECT_FALSE(jsonl::unescape("\\uzzzz", &out, &error));
  // Unpaired high surrogate.
  EXPECT_FALSE(jsonl::unescape("\\ud83d alone", &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Jsonl, ParseObjectFlatScalars) {
  std::string error;
  EXPECT_TRUE(jsonl::well_formed(
      "  {\"s\":\"hi\",\"n\":-2.5,\"b\":true,\"f\":false,\"z\":null}  ",
      &error))
      << error;
}

TEST(Jsonl, ParseObjectRejectsMalformed) {
  for (const char* bad : {
           "",                    // no object
           "{",                   // unterminated
           "{\"a\":1",            // unterminated
           "{\"a\":1} trailing",  // trailing garbage
           "{\"a\":bare}",        // bare word
           "{a:1}",               // unquoted key
           "{\"a\":1,}",          // trailing comma
           "{\"a\",1}",           // comma where the colon belongs
       }) {
    std::string error;
    EXPECT_FALSE(jsonl::well_formed(bad, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Jsonl, ParseObjectRoundTripsEscapedStrings) {
  const std::string nasty = "a\"b\\c\nd\te \xc3\xa9";
  const std::string line = "{\"k\":\"" + jsonl::escape(nasty) + "\"}";
  ASSERT_TRUE(jsonl::well_formed(line));
  // The value's body sits between `{"k":"` and the closing `"}`.
  std::string back;
  ASSERT_TRUE(jsonl::unescape(line.substr(6, line.size() - 8), &back));
  EXPECT_EQ(back, nasty);
}

// Documents well_formed() must reject / accept.
const std::vector<std::string> kMalformedJson = {
    "", "{", "[1,]", "{\"a\":}", "{} trailing", "\"unterminated",
    "{\"a\" 1}", "[01]", "nul", "\"bad \\x escape\"", "[1 2]"};
const std::vector<std::string> kWellFormedJson = {
    "{}", "[]", "null", "true", "-1.5e3", "\"a\\u00e9b\"",
    "{\"a\": [1, 2, {\"b\": null}]}"};

TEST(Jsonl, WellFormedRejectsMalformedDocuments) {
  for (const std::string& bad : kMalformedJson) {
    std::string err;
    EXPECT_FALSE(jsonl::well_formed(bad, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
  for (const std::string& good : kWellFormedJson) {
    std::string err;
    EXPECT_TRUE(jsonl::well_formed(good, &err)) << good << ": " << err;
  }
}

/// Applies one random byte flip, insert, delete or truncation.
void mutate(Rng& rng, std::string& s) {
  const auto any_byte = [&] {
    return static_cast<char>(rng.uniform_int(0, 255));
  };
  // Offset in [0, s.size() - 1 + past_end].
  const auto any_pos = [&](int past_end) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(s.size()) - 1 + past_end));
  };
  switch (rng.uniform_int(0, 3)) {
    case 0:
      if (!s.empty()) s[any_pos(0)] = any_byte();
      break;
    case 1:
      s.insert(any_pos(1), 1, any_byte());
      break;
    case 2:
      if (!s.empty()) s.erase(any_pos(0), 1);
      break;
    default:
      s.resize(any_pos(1));
      break;
  }
}

TEST(Jsonl, MutatedDocumentsNeverBreakEitherParser) {
  // Corpus: a Chrome trace document and the well-formedness lists above.
  std::vector<std::string> corpus;
  obs::Snapshot snap;
  obs::SpanRecord root;
  root.id = 1;
  root.name = "flow.optimize";
  root.dur_us = 42;
  obs::SpanRecord child;
  child.id = 2;
  child.parent = 1;
  child.depth = 1;
  child.name = "routing";
  child.detail = "net \"a\"\\b\n";
  snap.spans = {root, child};
  snap.counters["eval.testbench"] = 7;
  snap.thread_names[1] = "main";
  corpus.push_back(obs::to_chrome_trace_json(snap));
  ASSERT_TRUE(jsonl::well_formed(corpus.back()));
  corpus.insert(corpus.end(), kMalformedJson.begin(), kMalformedJson.end());
  corpus.insert(corpus.end(), kWellFormedJson.begin(), kWellFormedJson.end());

  Rng rng(2021);
  long accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string doc = corpus[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(corpus.size()) - 1))];
    for (int m = rng.uniform_int(1, 3); m > 0; --m) mutate(rng, doc);
    std::string check_err;
    if (jsonl::well_formed(doc, &check_err)) {
      ++accepted;
    } else {
      EXPECT_FALSE(check_err.empty()) << doc;
    }
  }
  // The mutations must leave enough documents intact to exercise the
  // accept path, not only the reject paths.
  EXPECT_GT(accepted, 100);

  // escape -> unescape round-trips random bytes, and the escaped body is a
  // well-formed string.
  for (int i = 0; i < 2000; ++i) {
    std::string raw(static_cast<std::size_t>(rng.uniform_int(0, 64)), '\0');
    for (char& c : raw) c = static_cast<char>(rng.uniform_int(0, 255));
    const std::string escaped = jsonl::escape(raw);
    std::string back;
    ASSERT_TRUE(jsonl::unescape(escaped, &back));
    EXPECT_EQ(back, raw);
    EXPECT_TRUE(jsonl::well_formed("\"" + escaped + "\""));
  }
}

TEST(Faults, EnableRejectsBadRates) {
  FaultConfig config;
  config.op_rate = 1.5;
  EXPECT_THROW(FaultInjector::global().enable(config), InvalidArgumentError);
  config.op_rate = -0.1;
  EXPECT_THROW(FaultInjector::global().enable(config), InvalidArgumentError);
  EXPECT_FALSE(FaultInjector::global().enabled());
}

}  // namespace
}  // namespace olp
