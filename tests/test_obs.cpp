// Telemetry layer: Json round-trips, metrics registry (counters, gauges,
// histogram quantiles, timing sections behind the Profiler facade), the
// simulated-timeline TraceBuffer + Chrome trace export, the JSONL RunLogger,
// and an end-to-end Trainer run whose artifacts parse back cleanly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "hylo/hylo.hpp"
#include "hylo/tensor/kernel_dispatch.hpp"

namespace hylo {
namespace {

using obs::Histogram;
using obs::Json;
using obs::MetricsRegistry;
using obs::RunLogConfig;
using obs::RunLogger;
using obs::TraceBuffer;

// ---------------------------------------------------------------- Json ----

TEST(Json, DumpPrimitives) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(3).dump(), "3");
  EXPECT_EQ(Json(std::int64_t{1234567890123}).dump(), "1234567890123");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, EscapesControlCharacters) {
  const std::string s = Json("a\"b\\c\n\t\x01").dump();
  EXPECT_EQ(s, "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j.set("zeta", 1).set("alpha", 2).set("mid", Json::array().push(3));
  EXPECT_EQ(j.dump(), "{\"zeta\":1,\"alpha\":2,\"mid\":[3]}");
  j.set("alpha", 9);  // overwrite keeps position
  EXPECT_EQ(j.dump(), "{\"zeta\":1,\"alpha\":9,\"mid\":[3]}");
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      "{\"a\":[1,2.5,true,null,\"x\\ny\"],\"b\":{\"nested\":-3e2}}";
  const Json j = Json::parse(text);
  EXPECT_EQ(j.at("a").items().size(), 5u);
  EXPECT_DOUBLE_EQ(j.at("a").items()[1].number(), 2.5);
  EXPECT_TRUE(j.at("a").items()[2].boolean());
  EXPECT_TRUE(j.at("a").items()[3].is_null());
  EXPECT_EQ(j.at("a").items()[4].str(), "x\ny");
  EXPECT_DOUBLE_EQ(j.at("b").at("nested").number(), -300.0);
  // Dump → parse → dump is a fixed point.
  EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
}

TEST(Json, ParseUnicodeEscape) {
  const Json j = Json::parse("\"\\u00e9\\u0041\"");
  EXPECT_EQ(j.str(), "\xc3\xa9"
                     "A");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), Error);
  EXPECT_THROW(Json::parse("'single'"), Error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), Error);
}

// Nesting is bounded: hostile lines of 100,000 open arrays or objects (a
// 200 KB run-log line) throw instead of overflowing the stack, naming the
// depth and the offset, while a document exactly at the limit parses.
TEST(Json, ParseRefusesNestingPastTheLimit) {
  const std::string arrays(100000, '[');
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"k\":";
  for (const std::string& hostile : {arrays, objects}) {
    try {
      Json::parse(hostile);
      ADD_FAILURE() << "hostile nesting parsed";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("depth " + std::to_string(Json::kMaxDepth + 1)),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("offset"), std::string::npos) << msg;
    }
  }
  const std::size_t d = Json::kMaxDepth;
  const Json at_limit =
      Json::parse(std::string(d, '[') + "7" + std::string(d, ']'));
  const Json* inner = &at_limit;
  for (std::size_t i = 1; i < d; ++i) inner = &inner->items().at(0);
  EXPECT_DOUBLE_EQ(inner->items().at(0).number(), 7.0);
  EXPECT_THROW(Json::parse(std::string(d + 1, '[') + std::string(d + 1, ']')),
               Error);
}

TEST(Json, FindAndAt) {
  Json j = Json::object();
  j.set("k", 7);
  EXPECT_NE(j.find("k"), nullptr);
  EXPECT_EQ(j.find("missing"), nullptr);
  EXPECT_THROW(j.at("missing"), Error);
}

TEST(Json, NonFiniteNumbersRoundTripAsSentinels) {
  // JSON has no NaN/Infinity literals; the dumper emits sentinel strings
  // (health probes produce non-finite values by design) and to_double maps
  // them back, so a run log survives a dump → parse → read cycle.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Json(nan).dump(), "\"NaN\"");
  EXPECT_EQ(Json(inf).dump(), "\"Infinity\"");
  EXPECT_EQ(Json(-inf).dump(), "\"-Infinity\"");

  Json rec = Json::object();
  rec.set("cond", inf).set("energy", nan).set("ok", 0.5);
  const Json back = Json::parse(rec.dump());
  EXPECT_TRUE(std::isinf(back.at("cond").to_double()));
  EXPECT_GT(back.at("cond").to_double(), 0.0);
  EXPECT_TRUE(std::isnan(back.at("energy").to_double()));
  EXPECT_DOUBLE_EQ(back.at("ok").to_double(), 0.5);
  EXPECT_TRUE(std::isinf(Json::parse("\"-Infinity\"").to_double()));
  EXPECT_LT(Json::parse("\"-Infinity\"").to_double(), 0.0);
}

TEST(Json, ToDoubleAcceptsNullRejectsText) {
  // null reads as NaN (an absent measurement), arbitrary text does not.
  EXPECT_TRUE(std::isnan(Json().to_double()));
  EXPECT_DOUBLE_EQ(Json(2.5).to_double(), 2.5);
  EXPECT_THROW(Json("not a number").to_double(), Error);
  EXPECT_THROW(Json(true).to_double(), Error);
}

// ------------------------------------------------------------- metrics ----

TEST(Metrics, CounterMonotonic) {
  MetricsRegistry reg;
  reg.counter("c").inc();
  reg.counter("c").inc(41);
  EXPECT_EQ(reg.counter_value("c"), 42);
  EXPECT_EQ(reg.counter_value("absent"), 0);
  EXPECT_THROW(reg.counter("c").inc(-1), Error);
}

TEST(Metrics, GaugeKeepsLastValue) {
  MetricsRegistry reg;
  reg.gauge("g").set(1.5);
  reg.gauge("g").set(-2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), -2.0);
  EXPECT_EQ(reg.gauge("g").set_count(), 2);
}

TEST(Metrics, HistogramBoundsFactories) {
  const auto lin = Histogram::linear_bounds(0.0, 10.0, 5);
  EXPECT_EQ(lin, (std::vector<double>{0.0, 2.5, 5.0, 7.5, 10.0}));
  const auto exp = Histogram::exponential_bounds(1.0, 2.0, 4);
  EXPECT_EQ(exp, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  EXPECT_THROW(Histogram({3.0, 1.0}), Error);  // not ascending
}

TEST(Metrics, HistogramQuantiles) {
  Histogram h(Histogram::linear_bounds(0.0, 100.0, 101));  // width-1 buckets
  for (int v = 1; v <= 100; ++v) h.observe(static_cast<double>(v));
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.p50(), 50.0, 1.0);
  EXPECT_NEAR(h.p95(), 95.0, 1.0);
  EXPECT_NEAR(h.p99(), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(Metrics, EmptyHistogramSummariesAreNaN) {
  // Empty-histogram contract: no samples means no summary — every summary
  // statistic is NaN (which the JSON layer serializes as the "NaN"
  // sentinel), never a fabricated 0.
  const Histogram h({1.0, 2.0});
  EXPECT_EQ(h.count(), 0);
  EXPECT_TRUE(std::isnan(h.mean()));
  EXPECT_TRUE(std::isnan(h.min()));
  EXPECT_TRUE(std::isnan(h.max()));
  EXPECT_TRUE(std::isnan(h.quantile(0.0)));
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  EXPECT_TRUE(std::isnan(h.p99()));
}

TEST(Metrics, HistogramSingleObservationAndOverflow) {
  Histogram h({1.0, 2.0});
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));  // empty
  h.observe(1.5);
  // One sample: every quantile reads that sample back exactly (min==max
  // clamp), including the extremes.
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.mean(), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.5);
  EXPECT_DOUBLE_EQ(h.p50(), 1.5);
  EXPECT_DOUBLE_EQ(h.p99(), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.5);
  h.observe(50.0);  // overflow bucket
  EXPECT_EQ(h.bucket_counts().back(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 50.0);
}

TEST(Metrics, RegistryGetOrCreate) {
  MetricsRegistry reg;
  obs::Counter& a = reg.counter("x");
  obs::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  // Custom bounds apply on first creation only.
  obs::Histogram& h = reg.histogram("h", {1.0, 2.0});
  EXPECT_EQ(&reg.histogram("h", {9.0}), &h);
  EXPECT_EQ(h.bounds().size(), 2u);
}

TEST(Metrics, SnapshotShape) {
  MetricsRegistry reg;
  reg.counter("c").inc(3);
  reg.gauge("g").set(1.0);
  reg.histogram("h").observe(0.5);
  reg.add_timing("t", 2.0);
  const Json snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.at("counters").at("c").number(), 3.0);
  EXPECT_DOUBLE_EQ(snap.at("gauges").at("g").number(), 1.0);
  EXPECT_DOUBLE_EQ(snap.at("histograms").at("h").at("count").number(), 1.0);
  EXPECT_DOUBLE_EQ(snap.at("timings").at("t").at("seconds").number(), 2.0);
  EXPECT_DOUBLE_EQ(snap.at("timings").at("t").at("calls").number(), 1.0);
  // The snapshot is valid JSON end to end.
  EXPECT_EQ(Json::parse(snap.dump()).dump(), snap.dump());
}

TEST(Metrics, ResetClearsEverything) {
  MetricsRegistry reg;
  reg.counter("c").inc();
  reg.add_timing("t", 1.0);
  reg.reset_timings();
  EXPECT_EQ(reg.counter_value("c"), 1);  // timings-only reset
  EXPECT_DOUBLE_EQ(reg.timing_seconds("t"), 0.0);
  reg.reset();
  EXPECT_EQ(reg.counter_value("c"), 0);
}

// ---------------------------------------------------- Profiler facade -----

TEST(Profiler, AddSecondsCallsReset) {
  Profiler p;
  EXPECT_DOUBLE_EQ(p.seconds("s"), 0.0);
  EXPECT_EQ(p.calls("s"), 0);
  p.add("s", 1.5);
  p.add("s", 0.5);
  EXPECT_DOUBLE_EQ(p.seconds("s"), 2.0);
  EXPECT_EQ(p.calls("s"), 2);
  EXPECT_EQ(p.sections().size(), 1u);
  // The facade and its registry are one store.
  EXPECT_DOUBLE_EQ(p.registry().timing_seconds("s"), 2.0);
  p.reset();
  EXPECT_DOUBLE_EQ(p.seconds("s"), 0.0);
  EXPECT_TRUE(p.sections().empty());
}

TEST(Profiler, ScopedTimerMeasuresScope) {
  Profiler p;
  {
    ScopedTimer t(p, "scope");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(p.calls("scope"), 1);
  EXPECT_GE(p.seconds("scope"), 0.004);
}

// --------------------------------------------------------------- trace ----

TEST(Trace, SpansAdvanceTheirOwnTrack) {
  // Modeled compute draws its span at the rank's own clock and advances
  // only that rank.
  TraceBuffer buf;
  CommSim comm(2, mist_v100(), ComputeModel{"unit", 1e6});
  comm.set_trace(&buf);
  comm.compute(0, 1e3, "forward_backward");  // 1 ms on rank 0
  comm.compute(1, 2e3, "forward_backward");  // 2 ms on rank 1
  comm.compute(0, 1e3, "step", Json::object().set("measured_s", 0.5));
  EXPECT_DOUBLE_EQ(comm.timeline()->rank_clock(0), 2e-3);
  EXPECT_DOUBLE_EQ(comm.timeline()->rank_clock(1), 2e-3);
  EXPECT_DOUBLE_EQ(comm.profiler().seconds("model/forward_backward"), 3e-3);
  ASSERT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.event(2).tid, 0);
  EXPECT_EQ(buf.event(2).cat, "model");
  EXPECT_DOUBLE_EQ(buf.event(2).ts_us, 1000.0);  // "step" after rank 0's pass
  EXPECT_DOUBLE_EQ(buf.event(2).dur_us, 1000.0);
  // A measured duration rides along as an arg, never as the span's length.
  EXPECT_DOUBLE_EQ(buf.event(2).args.at("measured_s").number(), 0.5);
}

TEST(Trace, CollectiveIsABarrier) {
  TraceBuffer buf;
  CommSim comm(2, mist_v100(), ComputeModel{"unit", 1e6});
  comm.set_trace(&buf);
  comm.compute(0, 1e3, "forward_backward");  // rank 0 at 1000 µs
  comm.compute(1, 3e3, "forward_backward");  // rank 1 at 3000 µs
  comm.charge_allreduce(1 << 20, "comm/grad_allreduce");
  const obs::TraceEvent& coll = buf.event(2);
  EXPECT_EQ(coll.tid, TraceBuffer::kCommTrack);
  EXPECT_EQ(coll.cat, "comm");
  EXPECT_DOUBLE_EQ(coll.ts_us, 3000.0);  // starts once the latest rank arrives
  const double end_s = 3e-3 + comm.comm_seconds();
  EXPECT_DOUBLE_EQ(coll.ts_us + coll.dur_us, end_s * 1e6);
  // Every rank resumes after it.
  EXPECT_DOUBLE_EQ(comm.timeline()->rank_clock(0), end_s);
  EXPECT_DOUBLE_EQ(comm.timeline()->rank_clock(1), end_s);
}

TEST(Trace, RingEvictsOldest) {
  TraceBuffer buf(4);
  for (int i = 0; i < 6; ++i)
    buf.add_span("s" + std::to_string(i), "comp", 0, i * 1e-6, 1e-6);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 2);
  EXPECT_EQ(buf.event(0).name, "s2");  // oldest-first
  EXPECT_EQ(buf.event(3).name, "s5");
}

TEST(Trace, ChromeTraceExportParsesBack) {
  TraceBuffer buf;
  buf.set_track_name(0, "rank 0");
  buf.set_track_name(TraceBuffer::kCommTrack, "interconnect");
  buf.add_span("fwd", "model", 0, 0.0, 1e-3, Json::object().set("iter", 0));
  buf.add_span("broadcast", "comm", TraceBuffer::kCommTrack, 1e-3, 5e-4,
               Json::object().set("bytes", 1024));
  buf.add_instant("mode:KID", "train", TraceBuffer::kCommTrack, 1.5e-3);
  std::ostringstream os;
  buf.write_chrome_trace(os);

  const Json doc = Json::parse(os.str());
  EXPECT_EQ(doc.at("displayTimeUnit").str(), "ms");
  const auto& events = doc.at("traceEvents").items();
  // 2 thread_name metadata + 3 events.
  ASSERT_EQ(events.size(), 5u);
  int metadata = 0, complete = 0, instant = 0;
  for (const Json& e : events) {
    const std::string ph = e.at("ph").str();
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(e.at("name").str(), "thread_name");
    } else if (ph == "X") {
      ++complete;
      EXPECT_GE(e.at("dur").number(), 0.0);
    } else if (ph == "i") {
      ++instant;
    }
  }
  EXPECT_EQ(metadata, 2);
  EXPECT_EQ(complete, 2);
  EXPECT_EQ(instant, 1);
}

TEST(Trace, HostileLabelsSurviveChromeExport) {
  // Label hygiene: names with quotes, backslashes and newlines (think
  // user-supplied section tags or file paths in args) must survive the
  // Chrome trace export byte-for-byte, not break the JSON.
  const std::string hostile = "span \"q\" back\\slash\nnewline\ttab";
  TraceBuffer buf;
  buf.set_track_name(0, "rank \"0\"\n(primary)");
  buf.add_span(hostile, "comp\\cat", 0, 0.0, 1e-3,
               Json::object().set("path", "C:\\tmp\n\"x\""));
  buf.add_instant("mode:\nKID", "train", 0, 1e-3);
  std::ostringstream os;
  buf.write_chrome_trace(os);

  const Json doc = Json::parse(os.str());
  const auto& events = doc.at("traceEvents").items();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at("args").at("name").str(), "rank \"0\"\n(primary)");
  EXPECT_EQ(events[1].at("name").str(), hostile);
  EXPECT_EQ(events[1].at("cat").str(), "comp\\cat");
  EXPECT_EQ(events[1].at("args").at("path").str(), "C:\\tmp\n\"x\"");
  EXPECT_EQ(events[2].at("name").str(), "mode:\nKID");
}

// ------------------------------------------------------------- run log ----

std::filesystem::path fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("hylo_obs_test_" + tag);
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<Json> read_jsonl(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<Json> records;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) records.push_back(Json::parse(line));
  return records;
}

TEST(RunLog, DisabledLoggerIsNoOp) {
  RunLogger log;
  EXPECT_FALSE(log.enabled());
  EXPECT_FALSE(log.per_step());
  log.record("step", Json::object().set("i", 1));
  log.console("quiet");
  log.finish();
  EXPECT_EQ(log.records_written(), 0);
}

TEST(RunLog, WritesSequencedJsonlAndTrace) {
  const auto dir = fresh_dir("runlog");
  MetricsRegistry reg;
  reg.counter("comm/broadcast.bytes").inc(4096);
  {
    RunLogConfig cfg;
    cfg.dir = dir.string();
    RunLogger log(cfg);
    log.attach_metrics(&reg);
    log.trace().add_span("fwd", "model", 0, 0.0, 1e-3);
    log.record("step", Json::object().set("loss", 0.5));
    log.record("epoch", Json::object().set("epoch", 0));
    log.console("epoch 0 done");
    log.finish();
  }
  const auto records = read_jsonl((dir / "run.jsonl").string());
  ASSERT_GE(records.size(), 5u);  // step, epoch, console, metrics, run_end
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_DOUBLE_EQ(records[i].at("seq").number(), static_cast<double>(i));
    EXPECT_TRUE(records[i].find("type") != nullptr);
  }
  EXPECT_EQ(records[0].at("type").str(), "step");
  EXPECT_DOUBLE_EQ(records[0].at("loss").number(), 0.5);
  EXPECT_EQ(records[2].at("type").str(), "console");
  // The closing metrics snapshot carries the attached registry.
  const Json* metrics = nullptr;
  for (const Json& r : records)
    if (r.at("type").str() == "metrics") metrics = &r;
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(
      metrics->at("counters").at("comm/broadcast.bytes").number(), 4096.0);
  // trace.json exists and parses as a Chrome trace.
  std::ifstream tin((dir / "trace.json").string());
  ASSERT_TRUE(tin.good());
  std::stringstream ss;
  ss << tin.rdbuf();
  const Json trace = Json::parse(ss.str());
  EXPECT_GE(trace.at("traceEvents").items().size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(RunLog, HostileLabelsAndNonFiniteValuesSurviveJsonl) {
  // One line per record is the JSONL contract: embedded newlines in labels
  // must be escaped (never split a record across lines), and non-finite
  // metric values must land as parseable sentinels.
  const auto dir = fresh_dir("hostile");
  const std::string label = "layer \"conv\\1\"\nsecond line";
  {
    RunLogConfig cfg;
    cfg.dir = dir.string();
    RunLogger log(cfg);
    log.record("probe", Json::object()
                            .set("label", label)
                            .set("cond", std::numeric_limits<double>::infinity())
                            .set("energy",
                                 std::numeric_limits<double>::quiet_NaN()));
    log.console("two\nlines");
    log.finish();
  }
  const auto records = read_jsonl((dir / "run.jsonl").string());
  ASSERT_GE(records.size(), 3u);  // probe, console, run_end
  EXPECT_EQ(records[0].at("label").str(), label);
  EXPECT_TRUE(std::isinf(records[0].at("cond").to_double()));
  EXPECT_TRUE(std::isnan(records[0].at("energy").to_double()));
  EXPECT_EQ(records[1].at("line").str(), "two\nlines");
  std::filesystem::remove_all(dir);
}

// ------------------------------------------- end-to-end trainer run -------

TEST(Telemetry, TrainerWritesRunLogAndTrace) {
  const auto dir = fresh_dir("trainer");
  const DataSplit data = make_spirals(256, 64, 2, 0.08, 11);
  Network net = make_mlp({2, 1, 1}, {16, 16}, 2, 1);
  OptimConfig oc;
  oc.lr = 0.05;
  oc.damping = 0.3;
  oc.update_freq = 4;
  oc.rank_ratio = 0.1;
  HyloOptimizer opt(oc);
  TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 16;
  tc.world = 2;
  tc.interconnect = mist_v100();
  tc.max_iters_per_epoch = 6;
  tc.telemetry.dir = dir.string();
  Trainer trainer(net, opt, data, tc);
  trainer.run();

  const auto records = read_jsonl(trainer.run_log().run_log_path());
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().at("type").str(), "run_start");
  EXPECT_EQ(records.front().at("optimizer").str(), "HyLo");
  EXPECT_DOUBLE_EQ(records.front().at("world").number(), 2.0);
  // The tier fixes every conv and GEMM bit and each conv's route.
  EXPECT_EQ(records.front().at("kernel_tier").str(),
            kern::tier_name(kern::active()));
  // Every run says which clock rules its seconds follow.
  EXPECT_EQ(records.front().at("comm_mode").str(),
            to_string(trainer.comm().mode()));
  EXPECT_EQ(records.front().at("compute_model").str(), tc.compute.name);

  std::vector<const Json*> epochs;
  std::vector<const Json*> steps;
  const Json* result = nullptr;
  for (const Json& r : records) {
    const std::string type = r.at("type").str();
    if (type == "epoch") epochs.push_back(&r);
    if (type == "step") steps.push_back(&r);
    if (type == "result") result = &r;
  }
  ASSERT_EQ(epochs.size(), 4u);
  EXPECT_EQ(steps.size(), 4u * 6u);  // per_step defaults on
  for (const Json* e : epochs) {
    const std::string mode = e->at("mode").str();
    EXPECT_TRUE(mode == "KID" || mode == "KIS");
    EXPECT_GT(e->at("rank_r").number(), 0.0);
    EXPECT_GE(e->at("switching").at("threshold").number(), 0.0);
    EXPECT_TRUE(e->at("switching").find("R") != nullptr);
    // Per-epoch wire accounting: broadcast bytes flowed every epoch (the
    // curvature refresh broadcasts inverses from the owning rank).
    const Json& coll = e->at("collectives");
    bool saw_bytes = false;
    for (const auto& [name, v] : coll.members())
      if (v.at("bytes").number() > 0.0) saw_bytes = true;
    EXPECT_TRUE(saw_bytes) << "epoch record without wire bytes";
    // Modeled seconds, and the measured ones beside them, labelled.
    const Json& time = e->at("time");
    EXPECT_GT(time.at("wall").number(), 0.0);
    EXPECT_GT(time.at("compute").number(), 0.0);
    EXPECT_GT(time.at("comm").number(), 0.0);
    EXPECT_LE(time.at("compute").number(), time.at("wall").number());
    for (const char* stage :
         {"forward_backward", "factorization", "inversion", "step"})
      EXPECT_GE(time.at("measured").at(stage).number(), 0.0) << stage;
    EXPECT_GT(time.at("measured").at("forward_backward").number(), 0.0);
  }
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->at("total_wire_bytes").number(), 0.0);
  EXPECT_GT(result->at("total_messages").number(), 0.0);
  EXPECT_DOUBLE_EQ(result->at("epochs_run").number(), 4.0);

  // The trace renders a real multi-rank timeline: both rank tracks named,
  // comm lane populated, and the whole file is valid Chrome trace JSON.
  std::ifstream tin(trainer.run_log().trace_path());
  ASSERT_TRUE(tin.good());
  std::stringstream ss;
  ss << tin.rdbuf();
  const Json trace = Json::parse(ss.str());
  int rank_tracks = 0;
  bool comm_span = false, inversion_span = false;
  for (const Json& e : trace.at("traceEvents").items()) {
    if (e.at("ph").str() == "M" &&
        e.at("args").at("name").str().rfind("rank ", 0) == 0)
      ++rank_tracks;
    if (e.at("ph").str() == "X" && e.at("cat").str() == "comm")
      comm_span = true;
    // The refresh pipeline draws each layer's owner compute on its rank.
    if (e.at("ph").str() == "X" && e.at("name").str() == "inversion" &&
        e.at("cat").str() == "model" && e.at("tid").number() < 2.0)
      inversion_span = true;
  }
  EXPECT_EQ(rank_tracks, 2);
  EXPECT_TRUE(comm_span);
  EXPECT_TRUE(inversion_span);

  // Wire counters exposed through CommSim match the registry totals.
  EXPECT_GT(trainer.comm().total_wire_bytes(), 0);
  EXPECT_GT(trainer.comm().wire_bytes_charged("comm/broadcast"), 0);
  EXPECT_GT(trainer.comm().messages("comm/broadcast"), 0);

  // The optimizer journaled one switch decision per epoch.
  EXPECT_EQ(opt.switch_history().size(), 4u);
  EXPECT_EQ(opt.switch_history().front().reason, "warmup");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hylo
