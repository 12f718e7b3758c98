#include "util/trace_export.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/table.hpp"

namespace olp::obs {

namespace {

/// JSON number: finite doubles only (NaN/inf have no JSON spelling; the
/// registry never stores them, but belt-and-braces emit 0).
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// One HistogramStats as a JSON object: count/sum/min/max, interpolated
/// p50/p95/p99/p999, and the nonzero buckets as [index,count] pairs (see
/// LatencyHistogram for the bucket layout).
std::string histogram_json(const HistogramStats& h) {
  std::string out = "{";
  out += "\"count\":" + std::to_string(h.count);
  out += ",\"sum\":" + num(h.sum);
  out += ",\"min\":" + num(h.min) + ",\"max\":" + num(h.max);
  out += ",\"p50\":" + num(h.p50) + ",\"p95\":" + num(h.p95);
  out += ",\"p99\":" + num(h.p99) + ",\"p999\":" + num(h.p999);
  out += ",\"buckets\":[";
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    out += std::to_string(h.buckets[i].first);
    out += ',';
    out += std::to_string(h.buckets[i].second);
    out += ']';
  }
  out += "]}";
  return out;
}

}  // namespace

std::string to_chrome_trace_json(const Snapshot& snapshot) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"olp flow\"}}";
  // Name every thread that registered one (pool/worker-N)
  // so the per-tid lanes below are readable in chrome://tracing / Perfetto.
  for (const auto& [tid, name] : snapshot.thread_names) {
    out += ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(tid) + ",\"args\":{\"name\":\"" +
           jsonl::escape(name) + "\"}}";
  }
  for (const SpanRecord& s : snapshot.spans) {
    out += ",{\"name\":\"" + jsonl::escape(s.name) + "\",\"cat\":\"olp\"";
    out += ",\"ph\":\"X\",\"ts\":" + std::to_string(s.start_us);
    out += ",\"dur\":" + std::to_string(s.dur_us < 0 ? 0 : s.dur_us);
    out += ",\"pid\":1,\"tid\":" + std::to_string(s.tid) + ",\"args\":{";
    out += "\"id\":" + std::to_string(s.id);
    out += ",\"parent\":" + std::to_string(s.parent);
    out += ",\"depth\":" + std::to_string(s.depth);
    if (!s.detail.empty()) {
      out += ",\"detail\":\"" + jsonl::escape(s.detail) + "\"";
    }
    if (s.open) out += ",\"open\":true";
    out += "}}";
  }
  // Final counter values as one instant event so traces carry the totals.
  if (!snapshot.counters.empty()) {
    out += ",{\"name\":\"counters\",\"cat\":\"olp\",\"ph\":\"i\",\"s\":\"g\"";
    std::int64_t ts = 0;
    for (const SpanRecord& s : snapshot.spans) {
      ts = std::max(ts, s.start_us + std::max<std::int64_t>(s.dur_us, 0));
    }
    out += ",\"ts\":" + std::to_string(ts) + ",\"pid\":1,\"tid\":1,\"args\":{";
    bool first = true;
    for (const auto& [name, value] : snapshot.counters) {
      if (!first) out += ',';
      first = false;
      out += "\"" + jsonl::escape(name) + "\":" + std::to_string(value);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

FlowTelemetry make_flow_telemetry(const Snapshot& snapshot) {
  FlowTelemetry t;
  // An entirely empty snapshot means the registry never collected anything
  // (it was off): the telemetry reports itself disabled.
  t.enabled = !snapshot.spans.empty() || !snapshot.counters.empty() ||
              !snapshot.distributions.empty();
  t.simulations = snapshot.counter("eval.testbench");
  t.snapshot = snapshot;
  if (snapshot.spans.empty()) return t;
  const SpanRecord& root = snapshot.spans.front();
  t.flow = root.name;
  t.total_seconds = static_cast<double>(root.dur_us) * 1e-6;
  for (const SpanRecord& s : snapshot.spans) {
    if (s.depth != root.depth + 1) continue;
    StageTiming* st = nullptr;
    for (StageTiming& existing : t.stages) {
      if (existing.stage == s.name) st = &existing;
    }
    if (st == nullptr) {
      t.stages.push_back(StageTiming{s.name, 0.0, 0});
      st = &t.stages.back();
    }
    st->seconds += static_cast<double>(s.dur_us) * 1e-6;
    st->spans += 1;
  }
  return t;
}

std::string to_json(const FlowTelemetry& t) {
  std::string out = "{";
  out += "\"enabled\":" + std::string(t.enabled ? "true" : "false");
  out += ",\"flow\":\"" + jsonl::escape(t.flow) + "\"";
  out += ",\"total_seconds\":" + num(t.total_seconds);
  out += ",\"simulations\":" + std::to_string(t.simulations);
  out += ",\"stages\":[";
  for (std::size_t i = 0; i < t.stages.size(); ++i) {
    const StageTiming& s = t.stages[i];
    if (i > 0) out += ',';
    out += "{\"stage\":\"" + jsonl::escape(s.stage) + "\"";
    out += ",\"seconds\":" + num(s.seconds);
    out += ",\"spans\":" + std::to_string(s.spans) + "}";
  }
  const BudgetStatus& b = t.budget;
  out += "],\"budget\":{";
  out += "\"limited\":" + std::string(b.limited ? "true" : "false");
  out += ",\"exhausted\":" + std::string(b.exhausted ? "true" : "false");
  out += ",\"tripped\":\"" + std::string(budget_kind_name(b.tripped)) + "\"";
  out += ",\"checks\":" + std::to_string(b.checks);
  out += ",\"testbenches_consumed\":" + std::to_string(b.testbenches_consumed);
  out += ",\"testbench_limit\":" + std::to_string(b.testbench_limit);
  out += ",\"check_limit\":" + std::to_string(b.check_limit);
  out += ",\"deadline_s\":" + num(b.deadline_s);
  out += ",\"elapsed_s\":" + num(b.elapsed_s);
  out += "},\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : t.snapshot.counters) {
    if (!first) out += ',';
    first = false;
    out += "\"" + jsonl::escape(name) + "\":" + std::to_string(value);
  }
  out += "},\"distributions\":{";
  first = true;
  for (const auto& [name, d] : t.snapshot.distributions) {
    if (!first) out += ',';
    first = false;
    out += "\"" + jsonl::escape(name) + "\":{";
    out += "\"count\":" + std::to_string(d.count);
    out += ",\"min\":" + num(d.min) + ",\"max\":" + num(d.max);
    out += ",\"mean\":" + num(d.mean);
    out += ",\"p50\":" + num(d.p50) + ",\"p95\":" + num(d.p95) + "}";
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : t.snapshot.histograms) {
    if (!first) out += ',';
    first = false;
    out += "\"" + jsonl::escape(name) + "\":" + histogram_json(h);
  }
  out += "},\"span_count\":" + std::to_string(t.snapshot.spans.size());
  out += "}";
  return out;
}

std::string summary_table(const FlowTelemetry& t) {
  std::string out;
  {
    TextTable table("Flow stages — " + t.flow);
    table.set_header({"stage", "time [s]", "share", "spans"});
    for (const StageTiming& s : t.stages) {
      table.add_row({s.stage, fixed(s.seconds, 3),
                     t.total_seconds > 0 ? pct(s.seconds / t.total_seconds)
                                         : "-",
                     std::to_string(s.spans)});
    }
    table.add_rule();
    table.add_row({"total", fixed(t.total_seconds, 3), "100.0%",
                   std::to_string(t.snapshot.spans.size())});
    out += table.render();
  }
  const BudgetStatus& b = t.budget;
  if (b.limited || b.exhausted) {
    const auto of_limit = [](long n, long limit) {
      return std::to_string(n) + " / " +
             (limit >= 0 ? std::to_string(limit) : std::string("unlimited"));
    };
    TextTable table("Budget");
    table.set_header({"field", "value"});
    table.add_row({"exhausted", b.exhausted ? "yes" : "no"});
    table.add_row({"tripped", budget_kind_name(b.tripped)});
    table.add_row({"checks", of_limit(b.checks, b.check_limit)});
    table.add_row(
        {"testbenches", of_limit(b.testbenches_consumed, b.testbench_limit)});
    table.add_row({"deadline [s]", b.deadline_s > 0.0
                                       ? fixed(b.deadline_s, 3)
                                       : std::string("none")});
    table.add_row({"elapsed [s]", fixed(b.elapsed_s, 3)});
    out += '\n';
    out += table.render();
  }
  if (!t.snapshot.counters.empty()) {
    TextTable table("Counters");
    table.set_header({"counter", "value"});
    for (const auto& [name, value] : t.snapshot.counters) {
      table.add_row({name, std::to_string(value)});
    }
    out += '\n';
    out += table.render();
  }
  if (!t.snapshot.distributions.empty()) {
    TextTable table("Distributions");
    table.set_header({"name", "n", "min", "mean", "p50", "p95", "max"});
    for (const auto& [name, d] : t.snapshot.distributions) {
      table.add_row({name, std::to_string(d.count), fixed(d.min, 2),
                     fixed(d.mean, 2), fixed(d.p50, 2), fixed(d.p95, 2),
                     fixed(d.max, 2)});
    }
    out += '\n';
    out += table.render();
  }
  if (!t.snapshot.histograms.empty()) {
    TextTable table("Histograms");
    table.set_header({"name", "n", "min", "p50", "p99", "p99.9", "max"});
    for (const auto& [name, h] : t.snapshot.histograms) {
      table.add_row({name, std::to_string(h.count), fixed(h.min, 2),
                     fixed(h.p50, 2), fixed(h.p99, 2), fixed(h.p999, 2),
                     fixed(h.max, 2)});
    }
    out += '\n';
    out += table.render();
  }
  return out;
}

void write_text_file(const std::string& path, const std::string& content) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // best effort
  }
  std::ofstream out(path);
  OLP_CHECK(static_cast<bool>(out), "cannot open " + path + " for writing");
  out << content;
  out.close();
  OLP_CHECK(static_cast<bool>(out), "failed writing " + path);
}

}  // namespace olp::obs
