// Resident layout service tests: request parsing, admission control and
// fair-share scheduling, per-request budgets, graceful drain vs. cancelling
// shutdown, snapshot warm restart (including corrupt-snapshot cold start),
// and the JSONL serve loop. Jobs use the ring-VCO circuit in conventional
// mode (milliseconds) except where optimize mode is needed to exercise the
// evaluation cache.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "service/journal.hpp"
#include "service/queue.hpp"
#include "service/request.hpp"
#include "service/service.hpp"
#include "util/jsonl.hpp"
#include "util/logging.hpp"

namespace olp::service {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

ServiceRequest vco_request(const std::string& id, const std::string& client) {
  ServiceRequest r;
  r.id = id;
  r.client = client;
  r.circuit = "vco";
  r.mode = circuits::FlowMode::kConventional;
  return r;
}

/// Small options: one worker, serial inner stages, no snapshot.
ServiceOptions small_options() {
  ServiceOptions o;
  o.workers = 1;
  o.pool_threads = 1;
  return o;
}

// --- request parsing --------------------------------------------------------

TEST(ParseRequest, FullSubmitLine) {
  ServiceRequest r;
  std::string error;
  ASSERT_EQ(parse_request(R"({"op":"submit","id":"j1","client":"alice",)"
                          R"("circuit":"ota5t","mode":"optimize","seed":9,)"
                          R"("priority":2,"deadline_ms":250,)"
                          R"("max_testbenches":100,"retries":3})",
                          &r, &error),
            RejectReason::kNone)
      << error;
  EXPECT_EQ(r.op, RequestOp::kSubmit);
  EXPECT_EQ(r.id, "j1");
  EXPECT_EQ(r.client, "alice");
  EXPECT_EQ(r.circuit, "ota5t");
  EXPECT_EQ(r.mode, circuits::FlowMode::kOptimize);
  EXPECT_EQ(r.seed, 9u);
  EXPECT_EQ(r.priority, 2);
  EXPECT_EQ(r.deadline_ms, 250.0);
  EXPECT_EQ(r.max_testbenches, 100);
  EXPECT_EQ(r.retries, 3);
}

TEST(ParseRequest, DefaultsApply) {
  ServiceRequest r;
  ASSERT_EQ(parse_request(R"({"op":"submit","circuit":"vco"})", &r, nullptr),
            RejectReason::kNone);
  EXPECT_EQ(r.client, "anon");
  EXPECT_EQ(r.mode, circuits::FlowMode::kOptimize);
  EXPECT_EQ(r.seed, 1u);
  EXPECT_EQ(r.deadline_ms, 0.0);
  EXPECT_EQ(r.retries, -1);
}

TEST(ParseRequest, RejectsBadInput) {
  ServiceRequest r;
  std::string error;
  EXPECT_EQ(parse_request("not json", &r, &error),
            RejectReason::kParseError);
  EXPECT_EQ(parse_request(R"({"op":42})", &r, &error),
            RejectReason::kParseError);
  EXPECT_EQ(parse_request(R"({"op":"conquer"})", &r, &error),
            RejectReason::kUnknownOp);
  EXPECT_EQ(parse_request(R"({"op":"submit","mode":"psychic"})", &r, &error),
            RejectReason::kUnknownMode);
  EXPECT_EQ(parse_request(R"({"op":"submit","seed":1.5})", &r, &error),
            RejectReason::kParseError);
  EXPECT_EQ(parse_request(R"({"op":"submit","deadline_ms":-5})", &r, &error),
            RejectReason::kParseError);
  EXPECT_FALSE(error.empty());
}

TEST(ParseRequest, EscapedStringsSurvive) {
  ServiceRequest r;
  ASSERT_EQ(parse_request(
                "{\"op\":\"submit\",\"id\":\"a\\\"b\\\\c\\nd\","
                "\"client\":\"caf\\u00e9\",\"circuit\":\"vco\"}",
                &r, nullptr),
            RejectReason::kNone);
  EXPECT_EQ(r.id, "a\"b\\c\nd");
  EXPECT_EQ(r.client, "caf\xc3\xa9");
}

// --- admission queue --------------------------------------------------------

QueuedJob make_job(const std::string& client, std::uint64_t ticket,
                   int priority = 0) {
  QueuedJob j;
  j.request.client = client;
  j.request.priority = priority;
  j.ticket = ticket;
  return j;
}

TEST(AdmissionQueue, BoundsShedWithReasons) {
  QueueOptions opt;
  opt.max_depth = 3;
  opt.max_per_client = 2;
  AdmissionQueue q(opt);
  EXPECT_EQ(q.offer(make_job("a", 1)), RejectReason::kNone);
  EXPECT_EQ(q.offer(make_job("a", 2)), RejectReason::kNone);
  EXPECT_EQ(q.offer(make_job("a", 3)), RejectReason::kClientQuota);
  EXPECT_EQ(q.offer(make_job("b", 4)), RejectReason::kNone);
  EXPECT_EQ(q.offer(make_job("c", 5)), RejectReason::kQueueFull);
  EXPECT_EQ(q.depth(), 3u);
  EXPECT_EQ(q.admitted(), 3);
  EXPECT_EQ(q.shed(RejectReason::kClientQuota), 1);
  EXPECT_EQ(q.shed(RejectReason::kQueueFull), 1);
  q.close();
  EXPECT_EQ(q.offer(make_job("a", 6)), RejectReason::kDraining);
  EXPECT_EQ(q.shed(RejectReason::kDraining), 1);
  EXPECT_EQ(q.shed_total(), 3);
}

TEST(AdmissionQueue, RoundRobinAcrossClients) {
  AdmissionQueue q;
  // Client a floods; client b submits one. b must be served within two
  // takes, not after a's whole backlog.
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_EQ(q.offer(make_job("a", i)), RejectReason::kNone);
  }
  ASSERT_EQ(q.offer(make_job("b", 10)), RejectReason::kNone);
  std::vector<std::string> order;
  QueuedJob job;
  while (q.depth() > 0) {
    ASSERT_TRUE(q.take(&job));
    order.push_back(job.request.client);
  }
  const std::vector<std::string> expected = {"a", "b", "a", "a", "a"};
  EXPECT_EQ(order, expected);
}

TEST(AdmissionQueue, PriorityOrdersWithinOneClient) {
  AdmissionQueue q;
  ASSERT_EQ(q.offer(make_job("a", 1, 0)), RejectReason::kNone);
  ASSERT_EQ(q.offer(make_job("a", 2, 5)), RejectReason::kNone);
  ASSERT_EQ(q.offer(make_job("a", 3, 5)), RejectReason::kNone);
  QueuedJob job;
  ASSERT_TRUE(q.take(&job));
  EXPECT_EQ(job.ticket, 2u);  // highest priority, earliest ticket
  ASSERT_TRUE(q.take(&job));
  EXPECT_EQ(job.ticket, 3u);
  ASSERT_TRUE(q.take(&job));
  EXPECT_EQ(job.ticket, 1u);
}

TEST(AdmissionQueue, CloseDrainsThenUnblocks) {
  AdmissionQueue q;
  ASSERT_EQ(q.offer(make_job("a", 1)), RejectReason::kNone);
  q.close();
  QueuedJob job;
  EXPECT_TRUE(q.take(&job));   // queued item still served after close
  EXPECT_FALSE(q.take(&job));  // then takers unblock with false
}

// --- service lifecycle ------------------------------------------------------

TEST(Service, RunsSubmittedJobToCompletion) {
  set_log_level(LogLevel::kOff);
  LayoutService svc(t(), small_options());
  svc.start();
  std::promise<RequestOutcome> done;
  auto future = done.get_future();
  ASSERT_EQ(svc.submit(vco_request("job1", "alice"),
                       [&done](const RequestOutcome& o) {
                         done.set_value(o);
                       }),
            RejectReason::kNone);
  const RequestOutcome outcome = future.get();
  EXPECT_EQ(outcome.status, circuits::JobStatus::kSucceeded);
  EXPECT_EQ(outcome.id, "job1");
  EXPECT_EQ(outcome.attempts, 1);
  svc.drain();
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.succeeded, 1);
  EXPECT_TRUE(stats.draining);
}

TEST(Service, UnknownCircuitShedsAtSubmission) {
  LayoutService svc(t(), small_options());
  svc.start();
  ServiceRequest r = vco_request("x", "alice");
  r.circuit = "flux_capacitor";
  EXPECT_EQ(svc.submit(r, nullptr), RejectReason::kUnknownCircuit);
  svc.drain();
  EXPECT_EQ(svc.stats().completed, 0);
}

TEST(Service, DeadlineBudgetDegradesInsteadOfHanging) {
  LayoutService svc(t(), small_options());
  svc.start();
  ServiceRequest r = vco_request("tight", "alice");
  r.mode = circuits::FlowMode::kOptimize;  // long enough to trip 1 ms
  r.deadline_ms = 1.0;
  std::promise<RequestOutcome> done;
  auto future = done.get_future();
  ASSERT_EQ(svc.submit(r, [&done](const RequestOutcome& o) {
              done.set_value(o);
            }),
            RejectReason::kNone);
  const RequestOutcome outcome = future.get();
  EXPECT_TRUE(outcome.budget_exhausted);
  EXPECT_NE(outcome.status, circuits::JobStatus::kFailed);  // salvaged
  svc.drain();
}

TEST(Service, DrainingShedsNewSubmissions) {
  LayoutService svc(t(), small_options());
  svc.start();
  svc.drain();
  EXPECT_EQ(svc.submit(vco_request("late", "alice"), nullptr),
            RejectReason::kDraining);
}

TEST(Service, ShutdownCancelsQueuedJobsWithOutcomes) {
  ServiceOptions options = small_options();
  LayoutService svc(t(), options);
  svc.start();
  // One slow job occupies the single worker; the rest queue behind it.
  std::atomic<int> done_count{0};
  std::atomic<int> cancelled_count{0};
  std::vector<std::promise<RequestOutcome>> outcomes(4);
  for (int i = 0; i < 4; ++i) {
    ServiceRequest r = vco_request("s" + std::to_string(i), "alice");
    if (i == 0) r.mode = circuits::FlowMode::kOptimize;  // slow head job
    ASSERT_EQ(svc.submit(r,
                         [&, i](const RequestOutcome& o) {
                           ++done_count;
                           if (o.error.find("cancelled") != std::string::npos) {
                             ++cancelled_count;
                           }
                           outcomes[static_cast<std::size_t>(i)].set_value(o);
                         }),
              RejectReason::kNone);
  }
  svc.drain(/*cancel_inflight=*/true);
  // Every submission got exactly one outcome: the in-flight head job was
  // budget-cancelled (salvage), the queued tail was dropped as cancelled.
  for (auto& p : outcomes) p.get_future().get();
  EXPECT_EQ(done_count.load(), 4);
  EXPECT_GE(cancelled_count.load(), 1);
  EXPECT_EQ(svc.stats().completed, 4);
}

TEST(Service, EnvOverridesWinAtConstruction) {
  ::setenv("OLP_SERVICE_WORKERS", "3", 1);
  ::setenv("OLP_SERVICE_RETRIES", "7", 1);
  ::setenv("OLP_SERVICE_QUEUE_DEPTH", "11", 1);
  ServiceOptions options;
  options.workers = 1;
  options.max_retries = 0;
  options.queue.max_depth = 5;
  LayoutService svc(t(), options);
  ::unsetenv("OLP_SERVICE_WORKERS");
  ::unsetenv("OLP_SERVICE_RETRIES");
  ::unsetenv("OLP_SERVICE_QUEUE_DEPTH");
  EXPECT_EQ(svc.options().workers, 3);
  EXPECT_EQ(svc.options().max_retries, 7);
  EXPECT_EQ(svc.options().queue.max_depth, 11u);
  // Env restored AFTER construction: the captured values stick.
  LayoutService later(t(), options);
  EXPECT_EQ(later.options().workers, 1);
}

// --- snapshot warm restart --------------------------------------------------

std::string temp_snapshot_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(ServiceSnapshot, WarmRestartServesRestoredEntries) {
  const std::string path = temp_snapshot_path("olp_service_warm.bin");
  std::remove(path.c_str());

  ServiceRequest optimize = vco_request("opt", "alice");
  optimize.mode = circuits::FlowMode::kOptimize;

  {
    ServiceOptions options = small_options();
    options.snapshot_path = path;
    LayoutService svc(t(), options);
    svc.start();
    std::promise<RequestOutcome> done;
    auto future = done.get_future();
    ASSERT_EQ(svc.submit(optimize, [&done](const RequestOutcome& o) {
                done.set_value(o);
              }),
              RejectReason::kNone);
    EXPECT_EQ(future.get().status, circuits::JobStatus::kSucceeded);
    svc.drain();  // flushes the final snapshot
    EXPECT_FALSE(svc.stats().snapshot_loaded);
    EXPECT_GT(svc.stats().cache.entries, 0);
  }

  // "Restart": a fresh service on the same path must warm-load and serve
  // the repeat request mostly from restored entries.
  {
    ServiceOptions options = small_options();
    options.snapshot_path = path;
    LayoutService svc(t(), options);
    svc.start();
    EXPECT_TRUE(svc.stats().snapshot_loaded);
    EXPECT_GT(svc.stats().cache.entries, 0);
    std::promise<RequestOutcome> done;
    auto future = done.get_future();
    ASSERT_EQ(svc.submit(optimize, [&done](const RequestOutcome& o) {
                done.set_value(o);
              }),
              RejectReason::kNone);
    EXPECT_EQ(future.get().status, circuits::JobStatus::kSucceeded);
    svc.drain();
    const ServiceStats stats = svc.stats();
    EXPECT_GT(stats.cache.restored_hits, 0);  // the warm-start proof
    EXPECT_EQ(stats.cache.misses, 0);  // same request, fully warm
  }
  std::remove(path.c_str());
}

TEST(ServiceSnapshot, CorruptSnapshotFallsBackToColdStart) {
  const std::string path = temp_snapshot_path("olp_service_corrupt.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "garbage, not a snapshot";
  }
  ServiceOptions options = small_options();
  options.snapshot_path = path;
  LayoutService svc(t(), options);
  svc.start();  // must not throw or abort
  const ServiceStats stats = svc.stats();
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_FALSE(stats.snapshot_error.empty());
  EXPECT_EQ(stats.cache.entries, 0);
  // The service still works cold.
  std::promise<RequestOutcome> done;
  auto future = done.get_future();
  ASSERT_EQ(svc.submit(vco_request("cold", "alice"),
                       [&done](const RequestOutcome& o) {
                         done.set_value(o);
                       }),
            RejectReason::kNone);
  EXPECT_EQ(future.get().status, circuits::JobStatus::kSucceeded);
  svc.drain();
  std::remove(path.c_str());
}

TEST(ServiceSnapshot, TruncatedSnapshotFallsBackToColdStart) {
  const std::string path = temp_snapshot_path("olp_service_trunc.bin");
  std::remove(path.c_str());
  // Produce a valid snapshot first.
  {
    ServiceOptions options = small_options();
    options.snapshot_path = path;
    LayoutService svc(t(), options);
    svc.start();
    std::promise<RequestOutcome> done;
    auto future = done.get_future();
    ServiceRequest r = vco_request("seed", "alice");
    r.mode = circuits::FlowMode::kOptimize;
    ASSERT_EQ(svc.submit(r, [&done](const RequestOutcome& o) {
                done.set_value(o);
              }),
              RejectReason::kNone);
    future.get();
    svc.drain();
  }
  // Truncate it (as a kill -9 mid-write on a non-atomic filesystem might).
  std::string full;
  {
    std::ifstream in(path, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(full.size(), 16u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size() / 3));
  }
  ServiceOptions options = small_options();
  options.snapshot_path = path;
  LayoutService svc(t(), options);
  svc.start();
  EXPECT_FALSE(svc.stats().snapshot_loaded);
  EXPECT_FALSE(svc.stats().snapshot_error.empty());
  EXPECT_EQ(svc.stats().cache.entries, 0);
  svc.drain();
  std::remove(path.c_str());
}

// --- serve loop -------------------------------------------------------------

TEST(Serve, JsonlLoopHandlesMixedTraffic) {
  std::istringstream in(
      "{\"op\":\"ping\"}\n"
      "this is not json\n"
      "{\"op\":\"submit\",\"client\":\"alice\",\"circuit\":\"vco\","
      "\"mode\":\"conventional\"}\n"
      "{\"op\":\"submit\",\"client\":\"alice\",\"circuit\":\"warp_core\"}\n"
      "{\"op\":\"stats\"}\n"
      "{\"op\":\"drain\"}\n");
  std::ostringstream out;
  LayoutService svc(t(), small_options());
  svc.serve(in, out);
  const std::string log = out.str();
  EXPECT_NE(log.find("\"event\":\"pong\""), std::string::npos);
  EXPECT_NE(log.find("\"reason\":\"parse_error\""), std::string::npos);
  EXPECT_NE(log.find("\"event\":\"accepted\""), std::string::npos);
  EXPECT_NE(log.find("\"event\":\"done\""), std::string::npos);
  EXPECT_NE(log.find("\"status\":\"succeeded\""), std::string::npos);
  EXPECT_NE(log.find("\"reason\":\"unknown_circuit\""), std::string::npos);
  EXPECT_NE(log.find("\"event\":\"stats\""), std::string::npos);
  EXPECT_NE(log.find("\"event\":\"drained\""), std::string::npos);
  // Every response line is itself one complete JSON object per line.
  std::istringstream lines(log);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
  EXPECT_GE(count, 7);
  EXPECT_TRUE(svc.draining());
}

TEST(Serve, EofDrainsGracefully) {
  std::istringstream in(
      "{\"op\":\"submit\",\"client\":\"a\",\"circuit\":\"vco\","
      "\"mode\":\"conventional\"}\n");
  std::ostringstream out;
  LayoutService svc(t(), small_options());
  svc.serve(in, out);  // EOF after one submit: job still completes
  EXPECT_NE(out.str().find("\"event\":\"done\""), std::string::npos);
  EXPECT_EQ(svc.stats().completed, 1);
}

TEST(Serve, MetricsOpRoundTripsFullTelemetry) {
  // With observability on, the metrics verb must return one well-formed
  // JSON line carrying the service gauges, the bounded latency histogram,
  // the shed breakdown, and the live obs families (pool queue depth /
  // busy-idle, lock-wait sites appear once contended).
  ServiceOptions options = small_options();
  options.workers = 2;
  options.pool_threads = 2;
  options.observability = true;
  LayoutService svc(t(), options);
  svc.start();
  // Run one optimize-mode job to completion first — optimize is the mode
  // whose inner stages go through the shared TaskPool, so the dump reflects
  // real pool telemetry — then ask for metrics over the wire.
  {
    std::promise<RequestOutcome> done;
    auto fut = done.get_future();
    ServiceRequest request = vco_request("m0", "a");
    request.mode = circuits::FlowMode::kOptimize;
    ASSERT_EQ(svc.submit(request,
                         [&done](const RequestOutcome& o) {
                           done.set_value(o);
                         }),
              RejectReason::kNone);
    fut.wait();
  }
  std::istringstream in("{\"op\":\"metrics\"}\n{\"op\":\"drain\"}\n");
  std::ostringstream out;
  svc.serve(in, out);

  std::string metrics_line;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"event\":\"metrics\"") != std::string::npos) {
      metrics_line = line;
    }
  }
  ASSERT_FALSE(metrics_line.empty()) << out.str();
  std::string err;
  EXPECT_TRUE(jsonl::well_formed(metrics_line, &err)) << err;
  for (const char* key :
       {"\"queue_depth\"", "\"completed\"", "\"latency_ms\"", "\"buckets\"",
        "\"p999\"", "\"shed\"", "\"queue_full\"", "\"client_quota\"",
        "\"counters\"", "\"histograms\"", "\"obs_enabled\":true"}) {
    EXPECT_NE(metrics_line.find(key), std::string::npos) << key;
  }
  // The inner pool ran parallel stages with obs on: its queue-depth
  // histogram must have made it into the dump. (Busy/idle counters are not
  // asserted — on a single-core host the submitting thread may legally run
  // every task itself before a pool worker wakes.)
  EXPECT_NE(metrics_line.find("obs.pool.queue_depth"), std::string::npos);
  obs::Registry::global().disable();
}

TEST(Service, PeriodicMetricsFileIsAppendOnlyJsonl) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "olp_metrics_test.jsonl")
          .string();
  std::remove(path.c_str());
  {
    ServiceOptions options = small_options();
    options.observability = true;
    options.metrics_path = path;
    options.metrics_every = 1;  // one line per completion, plus drain
    LayoutService svc(t(), options);
    svc.start();
    for (int i = 0; i < 3; ++i) {
      std::promise<RequestOutcome> done;
      auto fut = done.get_future();
      ASSERT_EQ(svc.submit(vco_request("m" + std::to_string(i), "a"),
                           [&done](const RequestOutcome& o) {
                             done.set_value(o);
                           }),
                RejectReason::kNone);
      fut.wait();
    }
    svc.drain();
  }
  obs::Registry::global().disable();

  std::ifstream file(path);
  ASSERT_TRUE(file.is_open()) << path;
  std::string line;
  int lines = 0;
  while (std::getline(file, line)) {
    ++lines;
    std::string err;
    EXPECT_TRUE(jsonl::well_formed(line, &err)) << err << "\n" << line;
    EXPECT_NE(line.find("\"completed\""), std::string::npos);
    EXPECT_NE(line.find("\"latency_ms\""), std::string::npos);
  }
  // 3 periodic lines (every completion) + the forced line at drain.
  EXPECT_GE(lines, 3);
  std::remove(path.c_str());
}

// --- malformed-frame corpus -------------------------------------------------
// Every line here must reject with a reason — never crash, never half-parse.

TEST(ParseRequest, MalformedFrameCorpusAllReject) {
  struct Case {
    const char* line;
    RejectReason want;
  };
  const Case corpus[] = {
      // structural damage
      {"", RejectReason::kParseError},
      {"{", RejectReason::kParseError},
      {"}", RejectReason::kParseError},
      {"{\"op\":\"ping\"", RejectReason::kParseError},
      {"{\"op\":\"ping\"}}", RejectReason::kParseError},
      {"[\"op\",\"ping\"]", RejectReason::kParseError},
      {"{\"op\":\"ping\"} trailing", RejectReason::kParseError},
      {"\x01\x02\x03", RejectReason::kParseError},
      // duplicate keys: ambiguous intent, rejected rather than last-wins
      {R"({"op":"submit","circuit":"vco","circuit":"ota5t"})",
       RejectReason::kParseError},
      {R"({"op":"ping","op":"shutdown"})", RejectReason::kParseError},
      // wrong-typed fields
      {R"({"op":"submit","id":42,"circuit":"vco"})", RejectReason::kParseError},
      {R"({"op":"submit","id":null,"circuit":"vco"})",
       RejectReason::kParseError},
      {R"({"op":"submit","client":true,"circuit":"vco"})",
       RejectReason::kParseError},
      {R"({"op":"submit","seed":"abc","circuit":"vco"})",
       RejectReason::kParseError},
      {R"({"op":"submit","key":7,"circuit":"vco"})", RejectReason::kParseError},
      // non-finite / negative numerics
      {R"({"op":"submit","deadline_ms":-1,"circuit":"vco"})",
       RejectReason::kParseError},
      {R"({"op":"submit","deadline_ms":NaN,"circuit":"vco"})",
       RejectReason::kParseError},
      {R"({"op":"submit","deadline_ms":Infinity,"circuit":"vco"})",
       RejectReason::kParseError},
      {R"({"op":"submit","deadline_ms":1e999,"circuit":"vco"})",
       RejectReason::kParseError},
      // nested payloads (the protocol is flat by design)
      {R"({"op":"submit","circuit":{"name":"vco"}})", RejectReason::kParseError},
      {R"({"op":"submit","circuit":"vco","tags":[1,2]})",
       RejectReason::kParseError},
      // the transport-stamped identity must never be wire-settable
      {R"({"op":"submit","circuit":"vco","identity":"tcp:1.2.3.4"})",
       RejectReason::kParseError},
      // unknown verbs/modes are their own reasons (still rejections)
      {R"({"op":"conquer"})", RejectReason::kUnknownOp},
      {R"({"op":"submit","mode":"psychic","circuit":"vco"})",
       RejectReason::kUnknownMode},
  };
  for (const Case& c : corpus) {
    ServiceRequest r;
    std::string error;
    EXPECT_EQ(parse_request(c.line, &r, &error), c.want) << c.line;
    EXPECT_FALSE(error.empty()) << c.line;
  }
}

TEST(ParseRequest, OversizedLineRejectsWithoutParsing) {
  // A line over kMaxRequestLineBytes sheds as kFrameTooLarge before any
  // JSON work happens — even when the JSON itself would be valid.
  std::string big = R"({"op":"submit","circuit":"vco","id":")";
  big += std::string(kMaxRequestLineBytes, 'x');
  big += "\"}";
  ServiceRequest r;
  std::string error;
  EXPECT_EQ(parse_request(big, &r, &error), RejectReason::kFrameTooLarge);
  EXPECT_FALSE(error.empty());
}

TEST(ParseRequest, IdempotencyKeyRoundTrips) {
  ServiceRequest r;
  ASSERT_EQ(parse_request(
                R"({"op":"submit","circuit":"vco","key":"alice/vco/7"})", &r,
                nullptr),
            RejectReason::kNone);
  EXPECT_EQ(r.key, "alice/vco/7");
}

TEST(Serve, MalformedCorpusNeverKillsTheLoop) {
  // The whole corpus through the real serve loop: every line answered,
  // service alive at the end (the trailing ping proves it).
  std::istringstream in(
      "{\n"
      "{\"op\":\"submit\",\"circuit\":\"vco\",\"circuit\":\"vco\"}\n"
      "{\"op\":\"submit\",\"id\":[],\"circuit\":\"vco\"}\n"
      "{\"op\":\"submit\",\"deadline_ms\":-2,\"circuit\":\"vco\"}\n"
      "{\"op\":\"ping\"}\n");
  std::ostringstream out;
  LayoutService svc(t(), small_options());
  svc.start();
  svc.serve(in, out);
  const std::string text = out.str();
  std::size_t rejected = 0;
  for (std::size_t pos = 0;
       (pos = text.find("\"rejected\"", pos)) != std::string::npos; ++pos) {
    ++rejected;
  }
  EXPECT_EQ(rejected, 4u);
  EXPECT_NE(text.find("\"pong\""), std::string::npos);
  EXPECT_EQ(svc.stats().parse_rejects, 4);
}

// --- durable request journal ------------------------------------------------

std::string temp_journal_path(const char* name) {
  std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

ServiceRequest keyed_request(const std::string& id, const std::string& key) {
  ServiceRequest r = vco_request(id, "alice");
  r.key = key;
  return r;
}

TEST(Journal, AcceptedRecordsSurviveReopenAsPending) {
  const std::string path = temp_journal_path("olp_journal_pending.bin");
  {
    RequestJournal journal(path);
    ASSERT_TRUE(journal.open());
    ServiceRequest r = keyed_request("j1", "k1");
    r.seed = 17;
    r.priority = 3;
    r.deadline_ms = 250.0;
    EXPECT_GT(journal.append_accepted(r), 0u);
    EXPECT_GT(journal.append_accepted(vco_request("j2", "bob")), 0u);
    // No close/flush call: the destructor path is the crash-consistency
    // story (appends are flushed as they happen).
  }
  RequestJournal reopened(path);
  ASSERT_TRUE(reopened.open());
  EXPECT_EQ(reopened.stats().records_scanned, 2);
  std::vector<JournalEntry> pending = reopened.take_pending();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].request.id, "j1");
  EXPECT_EQ(pending[0].request.key, "k1");
  EXPECT_EQ(pending[0].request.seed, 17u);
  EXPECT_EQ(pending[0].request.priority, 3);
  EXPECT_EQ(pending[0].request.deadline_ms, 250.0);
  EXPECT_EQ(pending[1].request.id, "j2");
  EXPECT_EQ(pending[1].request.client, "bob");
  std::remove(path.c_str());
}

TEST(Journal, CompletedRecordsClearPendingAndRememberKeys) {
  const std::string path = temp_journal_path("olp_journal_complete.bin");
  {
    RequestJournal journal(path);
    ASSERT_TRUE(journal.open());
    const std::uint64_t s1 = journal.append_accepted(keyed_request("a", "ka"));
    const std::uint64_t s2 = journal.append_accepted(keyed_request("b", "kb"));
    ASSERT_GT(s1, 0u);
    ASSERT_GT(s2, 0u);
    EXPECT_TRUE(
        journal.append_completed(s1, "ka", circuits::JobStatus::kSucceeded));
    // s2 stays pending — the "crashed mid-run" entry.
  }
  RequestJournal reopened(path);
  ASSERT_TRUE(reopened.open());
  std::vector<JournalEntry> pending = reopened.take_pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].request.id, "b");
  circuits::JobStatus status = circuits::JobStatus::kFailed;
  EXPECT_TRUE(reopened.completed_key("ka", &status));
  EXPECT_EQ(status, circuits::JobStatus::kSucceeded);
  EXPECT_FALSE(reopened.completed_key("kb", nullptr));
  std::remove(path.c_str());
}

TEST(Journal, EmptyKeyCompletionVoidsWithoutBurningAKey) {
  const std::string path = temp_journal_path("olp_journal_void.bin");
  {
    RequestJournal journal(path);
    ASSERT_TRUE(journal.open());
    const std::uint64_t seq =
        journal.append_accepted(keyed_request("shed", "kshed"));
    ASSERT_GT(seq, 0u);
    // Shed after journaling: void the entry, the key must stay usable.
    EXPECT_TRUE(
        journal.append_completed(seq, "", circuits::JobStatus::kFailed));
  }
  RequestJournal reopened(path);
  ASSERT_TRUE(reopened.open());
  EXPECT_TRUE(reopened.take_pending().empty());
  EXPECT_FALSE(reopened.completed_key("kshed", nullptr));
  std::remove(path.c_str());
}

TEST(Journal, TornTailIsTruncatedAndIntactRecordsSurvive) {
  const std::string path = temp_journal_path("olp_journal_torn.bin");
  {
    RequestJournal journal(path);
    ASSERT_TRUE(journal.open());
    ASSERT_GT(journal.append_accepted(keyed_request("ok", "kok")), 0u);
  }
  // Simulate a crash mid-append: a partial record at the tail.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const std::uint32_t bogus_len = 1000;
    out.write(reinterpret_cast<const char*>(&bogus_len), sizeof bogus_len);
    out << "only twenty bytes...";
  }
  RequestJournal reopened(path);
  ASSERT_TRUE(reopened.open());
  EXPECT_TRUE(reopened.stats().torn_tail_recovered);
  std::vector<JournalEntry> pending = reopened.take_pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].request.id, "ok");
  // The tail was truncated in place: a third open sees a clean file and can
  // keep appending where the intact prefix ended.
  EXPECT_GT(reopened.append_accepted(vco_request("more", "c")), 0u);
  std::remove(path.c_str());
}

TEST(Journal, CorruptChecksumStopsScanAtLastGoodRecord) {
  const std::string path = temp_journal_path("olp_journal_sum.bin");
  {
    RequestJournal journal(path);
    ASSERT_TRUE(journal.open());
    ASSERT_GT(journal.append_accepted(vco_request("good", "a")), 0u);
    ASSERT_GT(journal.append_accepted(vco_request("flipped", "a")), 0u);
  }
  // Flip one byte in the LAST record's payload.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 12u);
  bytes[bytes.size() - 12] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  RequestJournal reopened(path);
  ASSERT_TRUE(reopened.open());
  EXPECT_TRUE(reopened.stats().torn_tail_recovered);
  std::vector<JournalEntry> pending = reopened.take_pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].request.id, "good");
  std::remove(path.c_str());
}

TEST(Journal, ForeignFileIsRefusedNotClobbered) {
  const std::string path = temp_journal_path("olp_journal_foreign.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "PKZIP???definitely not a journal";
  }
  RequestJournal journal(path);
  std::string error;
  EXPECT_FALSE(journal.open(&error));
  EXPECT_FALSE(error.empty());
  // The foreign file survives untouched.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.substr(0, 5), "PKZIP");
  std::remove(path.c_str());
}

TEST(Journal, CompactKeepsPendingAndKeyHistoryOnly) {
  const std::string path = temp_journal_path("olp_journal_compact.bin");
  RequestJournal journal(path);
  ASSERT_TRUE(journal.open());
  for (int i = 0; i < 20; ++i) {
    const std::string key = "k" + std::to_string(i);
    const std::uint64_t seq =
        journal.append_accepted(keyed_request("j" + std::to_string(i), key));
    ASSERT_GT(seq, 0u);
    if (i < 19) {
      ASSERT_TRUE(
          journal.append_completed(seq, key, circuits::JobStatus::kSucceeded));
    }
  }
  const auto size_before = std::filesystem::file_size(path);
  ASSERT_TRUE(journal.compact());
  EXPECT_LT(std::filesystem::file_size(path), size_before);
  EXPECT_EQ(journal.stats().compactions, 1);
  // Reopen: key history and the one pending entry survived the rewrite.
  RequestJournal reopened(path);
  ASSERT_TRUE(reopened.open());
  circuits::JobStatus status;
  EXPECT_TRUE(reopened.completed_key("k0", &status));
  EXPECT_TRUE(reopened.completed_key("k18", &status));
  std::vector<JournalEntry> pending = reopened.take_pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].request.key, "k19");
  std::remove(path.c_str());
}

// --- idempotency keys through the service -----------------------------------

TEST(ServiceIdempotency, DuplicateKeySubmitIsAnsweredNotRerun) {
  ServiceOptions options = small_options();
  LayoutService svc(t(), options);
  svc.start();
  std::promise<RequestOutcome> done;
  auto future = done.get_future();
  ASSERT_EQ(svc.submit(keyed_request("first", "dup-key"),
                       [&done](const RequestOutcome& o) { done.set_value(o); }),
            RejectReason::kNone);
  EXPECT_EQ(future.get().status, circuits::JobStatus::kSucceeded);
  // Same key again (same or different id): kDuplicate, callback never fires.
  EXPECT_EQ(svc.submit(keyed_request("second", "dup-key"),
                       [](const RequestOutcome&) { FAIL() << "must not run"; }),
            RejectReason::kDuplicate);
  circuits::JobStatus status = circuits::JobStatus::kFailed;
  EXPECT_TRUE(svc.duplicate_status("dup-key", &status));
  EXPECT_EQ(status, circuits::JobStatus::kSucceeded);
  EXPECT_EQ(svc.stats().duplicates, 1);
  EXPECT_EQ(svc.stats().completed, 1);
  svc.drain();
}

TEST(ServiceIdempotency, InFlightKeyIsDuplicateWithPendingStatus) {
  ServiceOptions options = small_options();
  options.workers = 1;
  LayoutService svc(t(), options);
  // NOT started yet: the keyed job sits queued, deterministically pending.
  ServiceRequest keyed = keyed_request("queued", "inflight-key");
  std::promise<RequestOutcome> done;
  auto future = done.get_future();
  ASSERT_EQ(svc.submit(keyed,
                       [&done](const RequestOutcome& o) { done.set_value(o); }),
            RejectReason::kNone);
  // Resubmit while queued: accepted-but-not-completed keys are duplicates
  // with no recorded status yet.
  EXPECT_EQ(svc.submit(keyed_request("again", "inflight-key"),
                       [](const RequestOutcome&) { FAIL() << "must not run"; }),
            RejectReason::kDuplicate);
  circuits::JobStatus status;
  EXPECT_FALSE(svc.duplicate_status("inflight-key", &status));
  svc.start();
  future.get();
  EXPECT_TRUE(svc.duplicate_status("inflight-key", &status));
  svc.drain();
}

TEST(ServiceJournal, CrashedEntriesReplayOnStart) {
  const std::string path = temp_journal_path("olp_service_replay.bin");
  // "Crash": journal two accepted requests that never completed. One keyed
  // entry already has a completion on record — replay must dedup it.
  {
    RequestJournal journal(path);
    ASSERT_TRUE(journal.open());
    ASSERT_GT(journal.append_accepted(vco_request("lost1", "alice")), 0u);
    const std::uint64_t done_seq =
        journal.append_accepted(keyed_request("finished", "done-key"));
    ASSERT_GT(done_seq, 0u);
    ASSERT_TRUE(journal.append_completed(done_seq, "done-key",
                                         circuits::JobStatus::kSucceeded));
    ASSERT_GT(journal.append_accepted(keyed_request("lost2", "redo-key")), 0u);
  }
  ServiceOptions options = small_options();
  options.journal_path = path;
  LayoutService svc(t(), options);
  svc.start();
  // Replay re-enqueued the two unfinished entries; the completed key was
  // remembered, not re-run.
  svc.drain();
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.journal_replayed, 2);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_TRUE(stats.journal.enabled);
  circuits::JobStatus status;
  EXPECT_TRUE(svc.duplicate_status("done-key", &status));
  EXPECT_EQ(status, circuits::JobStatus::kSucceeded);
  // redo-key ran to completion during replay and is now deduplicated too.
  EXPECT_TRUE(svc.duplicate_status("redo-key", &status));
  std::remove(path.c_str());
}

TEST(ServiceJournal, KeyedDedupSurvivesRestart) {
  const std::string path = temp_journal_path("olp_service_dedup.bin");
  {
    ServiceOptions options = small_options();
    options.journal_path = path;
    LayoutService svc(t(), options);
    svc.start();
    std::promise<RequestOutcome> done;
    auto future = done.get_future();
    ASSERT_EQ(
        svc.submit(keyed_request("j", "stable-key"),
                   [&done](const RequestOutcome& o) { done.set_value(o); }),
        RejectReason::kNone);
    future.get();
    svc.drain();  // compacts the journal on the way out
    EXPECT_EQ(svc.stats().journal.compactions, 1);
  }
  // Restart: the same key must be refused without running anything.
  ServiceOptions options = small_options();
  options.journal_path = path;
  LayoutService svc(t(), options);
  svc.start();
  EXPECT_EQ(svc.submit(keyed_request("retry", "stable-key"),
                       [](const RequestOutcome&) { FAIL() << "must not run"; }),
            RejectReason::kDuplicate);
  circuits::JobStatus status;
  EXPECT_TRUE(svc.duplicate_status("stable-key", &status));
  EXPECT_EQ(status, circuits::JobStatus::kSucceeded);
  EXPECT_EQ(svc.stats().completed, 0);  // nothing executed this run
  svc.drain();
  std::remove(path.c_str());
}

// --- per-identity rate limiting ---------------------------------------------

TEST(ServiceRateLimit, TokenBucketShedsBurstsPerIdentity) {
  ServiceOptions options = small_options();
  options.rate_per_s = 0.001;  // effectively no refill within the test
  options.rate_burst = 2;
  LayoutService svc(t(), options);
  svc.start();
  ServiceRequest a = vco_request("", "alice");
  a.identity = "tcp:10.0.0.1";
  std::atomic<int> done{0};
  auto count = [&done](const RequestOutcome&) { ++done; };
  EXPECT_EQ(svc.submit(a, count), RejectReason::kNone);
  EXPECT_EQ(svc.submit(a, count), RejectReason::kNone);
  EXPECT_EQ(svc.submit(a, count), RejectReason::kRateLimited);
  // A different identity has its own bucket.
  ServiceRequest b = vco_request("", "alice");
  b.identity = "tcp:10.0.0.2";
  EXPECT_EQ(svc.submit(b, count), RejectReason::kNone);
  // Renaming the client does NOT reset the bucket — identity is the key.
  ServiceRequest renamed = vco_request("", "totally-new-name");
  renamed.identity = "tcp:10.0.0.1";
  EXPECT_EQ(svc.submit(renamed, count), RejectReason::kRateLimited);
  EXPECT_EQ(svc.stats().shed_rate_limited, 2);
  svc.drain();
  EXPECT_EQ(done.load(), 3);
}

// --- adversarial client churn vs. fairness ----------------------------------

TEST(AdmissionQueue, FreshNamesCannotDefeatIdentityQuota) {
  QueueOptions qo;
  qo.max_depth = 0;       // only the per-identity bound in play
  qo.max_per_client = 3;
  AdmissionQueue q(qo);
  // One peer reconnecting under fresh self-reported names every time.
  std::uint64_t ticket = 1;
  for (int i = 0; i < 3; ++i) {
    QueuedJob j;
    j.request = vco_request("j", "name-" + std::to_string(i));
    j.request.identity = "tcp:9.9.9.9";
    j.ticket = ticket++;
    EXPECT_EQ(q.offer(std::move(j)), RejectReason::kNone);
  }
  QueuedJob fourth;
  fourth.request = vco_request("j", "name-99");
  fourth.request.identity = "tcp:9.9.9.9";
  fourth.ticket = ticket++;
  EXPECT_EQ(q.offer(std::move(fourth)), RejectReason::kClientQuota);
  // An honest different peer is unaffected.
  QueuedJob other;
  other.request = vco_request("j", "name-99");
  other.request.identity = "tcp:8.8.8.8";
  other.ticket = ticket++;
  EXPECT_EQ(q.offer(std::move(other)), RejectReason::kNone);
}

TEST(AdmissionQueue, RoundRobinKeysOnIdentityNotClientName) {
  AdmissionQueue q;
  std::uint64_t ticket = 1;
  // Peer A floods under rotating names; peer B submits two.
  for (int i = 0; i < 6; ++i) {
    QueuedJob j;
    j.request = vco_request("a" + std::to_string(i), "alias-" + std::to_string(i));
    j.request.identity = "tcp:1.1.1.1";
    j.ticket = ticket++;
    ASSERT_EQ(q.offer(std::move(j)), RejectReason::kNone);
  }
  for (int i = 0; i < 2; ++i) {
    QueuedJob j;
    j.request = vco_request("b" + std::to_string(i), "bob");
    j.request.identity = "tcp:2.2.2.2";
    j.ticket = ticket++;
    ASSERT_EQ(q.offer(std::move(j)), RejectReason::kNone);
  }
  // Fair share: B's two jobs are served 2nd and 4th, not 7th and 8th.
  std::vector<std::string> order;
  QueuedJob out;
  while (q.depth() > 0 && q.take(&out)) order.push_back(out.request.id);
  ASSERT_EQ(order.size(), 8u);
  EXPECT_EQ(order[1], "b0");
  EXPECT_EQ(order[3], "b1");
}

TEST(AdmissionQueue, RoundRobinSurvivesMidDrainChurn) {
  // Clients appear and vanish while workers drain: the cursor must keep
  // rotating over whoever remains, never skipping a live identity forever
  // and never crashing on a vanished one.
  AdmissionQueue q;
  std::uint64_t ticket = 1;
  auto offer = [&](const std::string& identity, const std::string& id) {
    QueuedJob j;
    j.request = vco_request(id, "c");
    j.request.identity = identity;
    j.ticket = ticket++;
    ASSERT_EQ(q.offer(std::move(j)), RejectReason::kNone);
  };
  offer("peer-a", "a0");
  offer("peer-a", "a1");
  offer("peer-b", "b0");
  offer("peer-c", "c0");
  offer("peer-c", "c1");

  QueuedJob out;
  ASSERT_TRUE(q.take(&out));
  EXPECT_EQ(out.request.id, "a0");
  ASSERT_TRUE(q.take(&out));
  EXPECT_EQ(out.request.id, "b0");  // b's only item: b "disconnects" now
  // Mid-drain: a NEW peer joins right where the cursor sits (key order
  // resumes after "peer-b", so "peer-b2" is next in rotation).
  offer("peer-b2", "d0");
  ASSERT_TRUE(q.take(&out));
  EXPECT_EQ(out.request.id, "d0");  // the newcomer got its turn promptly
  ASSERT_TRUE(q.take(&out));
  EXPECT_EQ(out.request.id, "c0");
  ASSERT_TRUE(q.take(&out));
  EXPECT_EQ(out.request.id, "a1");  // wrapped around, a still live
  ASSERT_TRUE(q.take(&out));
  EXPECT_EQ(out.request.id, "c1");
  EXPECT_EQ(q.depth(), 0u);
}

TEST(ServiceChurn, HandleLineStampsIdentityIntoQuotas) {
  // Through the real dispatch path: one identity rotating client names must
  // exhaust ITS quota, not get a fresh one per name.
  ServiceOptions options = small_options();
  options.workers = 1;
  options.queue.max_depth = 0;
  options.queue.max_per_client = 2;
  LayoutService svc(t(), options);
  // NOT started: queued items sit still, so the third submit MUST hit the
  // identity quota — no worker race.
  std::vector<std::string> lines;
  std::mutex lines_mu;
  auto emit = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(lines_mu);
    lines.push_back(line);
  };
  for (int i = 0; i < 3; ++i) {
    svc.handle_line("tcp:6.6.6.6",
                    "{\"op\":\"submit\",\"client\":\"alias" + std::to_string(i) +
                        "\",\"circuit\":\"vco\",\"mode\":\"conventional\"}",
                    emit);
  }
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  {
    std::lock_guard<std::mutex> lock(lines_mu);
    for (const std::string& line : lines) {
      if (line.find("\"accepted\"") != std::string::npos) ++accepted;
      if (line.find("\"rejected\"") != std::string::npos) {
        ++rejected;
        EXPECT_NE(line.find("client_quota"), std::string::npos) << line;
      }
    }
  }
  // Exactly two admitted, the third shed — fresh client names bought the
  // peer nothing.
  EXPECT_EQ(accepted, 2u);
  EXPECT_EQ(rejected, 1u);
  svc.start();
  svc.drain();
}

// --- hot reload -------------------------------------------------------------

TEST(ServiceReload, QueueBoundsApplyWithoutDroppingQueuedWork) {
  ServiceOptions options = small_options();
  options.workers = 1;
  options.queue.max_depth = 8;
  LayoutService svc(t(), options);
  // NOT started: queued items sit still so the bounds are observable.
  std::atomic<int> done{0};
  auto count = [&done](const RequestOutcome&) { ++done; };
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(svc.submit(vco_request("q" + std::to_string(i),
                                     "client" + std::to_string(i)),
                         count),
              RejectReason::kNone);
  }
  // Shrink the bound BELOW the current depth: queued work is untouchable,
  // new offers shed.
  svc.reload({{"queue_depth", 2.0}});
  EXPECT_EQ(svc.submit(vco_request("q9", "client9"), count),
            RejectReason::kQueueFull);
  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.queue_depth, 4u);
  EXPECT_EQ(stats.reloads, 1);
  // Grow it back: admission resumes.
  svc.reload({{"queue_depth", 16.0}});
  EXPECT_EQ(svc.submit(vco_request("q10", "client10"), count),
            RejectReason::kNone);
  svc.start();
  svc.drain();
  EXPECT_EQ(done.load(), 5);
}

TEST(ServiceReload, WorkerFleetResizesInPlace) {
  ServiceOptions options = small_options();
  options.workers = 1;
  LayoutService svc(t(), options);
  svc.start();
  EXPECT_EQ(svc.stats().workers, 1);
  svc.reload({{"workers", 3.0}});
  EXPECT_EQ(svc.stats().workers, 3);
  // The resized fleet actually serves.
  std::promise<RequestOutcome> done;
  auto future = done.get_future();
  ASSERT_EQ(svc.submit(vco_request("after-resize", "a"),
                       [&done](const RequestOutcome& o) { done.set_value(o); }),
            RejectReason::kNone);
  EXPECT_EQ(future.get().status, circuits::JobStatus::kSucceeded);
  svc.reload({{"workers", 1.0}});
  EXPECT_EQ(svc.stats().workers, 1);
  std::promise<RequestOutcome> again;
  auto future2 = again.get_future();
  ASSERT_EQ(
      svc.submit(vco_request("after-shrink", "a"),
                 [&again](const RequestOutcome& o) { again.set_value(o); }),
      RejectReason::kNone);
  EXPECT_EQ(future2.get().status, circuits::JobStatus::kSucceeded);
  svc.drain();
  EXPECT_EQ(svc.stats().reloads, 2);
}

TEST(ServiceReload, ReloadVerbEchoesEffectiveConfig) {
  ServiceOptions options = small_options();
  LayoutService svc(t(), options);
  svc.start();
  std::vector<std::string> lines;
  auto emit = [&lines](const std::string& line) { lines.push_back(line); };
  EXPECT_TRUE(svc.handle_line(
      "", R"({"op":"reload","queue_depth":5,"rate":2.5,"workers":2})", emit));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"reloaded\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"queue_depth\":5"), std::string::npos);
  EXPECT_NE(lines[0].find("\"workers\":2"), std::string::npos);
  EXPECT_NE(lines[0].find("\"rate\":2.5"), std::string::npos);
  svc.drain();
}

}  // namespace
}  // namespace olp::service
