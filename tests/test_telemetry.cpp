// The telemetry subsystem's contracts (DESIGN.md §12): log-scale
// histogram buckets quantize within 25%, concurrent per-slot recording
// merges deterministically, exported Chrome traces parse back
// losslessly, and — the load-bearing one — switching metrics, tracing
// and a silent Monitor on changes nothing about any engine client's
// execution (same identity matrix as test_sharding, via
// engine_cases.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "engine_cases.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_reader.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

namespace tel = telemetry;

TEST(HistogramBuckets, LayoutTilesTheFullRange) {
  // Values 0..3 get exact buckets.
  for (std::uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(tel::bucket_of(v), v);
    EXPECT_EQ(tel::bucket_lo(static_cast<unsigned>(v)), v);
  }
  // Buckets tile: each bucket's exclusive hi is the next bucket's lo.
  for (unsigned b = 0; b + 1 < tel::kHistBuckets; ++b) {
    EXPECT_EQ(tel::bucket_hi(b), tel::bucket_lo(b + 1)) << "bucket " << b;
    EXPECT_LT(tel::bucket_lo(b), tel::bucket_hi(b)) << "bucket " << b;
  }
  // Every value lands in the bucket whose [lo, hi) contains it, and
  // sub-octave splitting bounds the bucket width to 25% of its lo.
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{3}, std::uint64_t{4},
        std::uint64_t{5}, std::uint64_t{7}, std::uint64_t{8},
        std::uint64_t{1000}, std::uint64_t{123456789},
        (std::uint64_t{1} << 40) + 17, ~std::uint64_t{0}}) {
    const unsigned b = tel::bucket_of(v);
    ASSERT_LT(b, tel::kHistBuckets) << v;
    EXPECT_GE(v, tel::bucket_lo(b)) << v;
    if (b + 1 < tel::kHistBuckets) {
      EXPECT_LT(v, tel::bucket_hi(b)) << v;
      if (v >= 4) {
        EXPECT_LE(tel::bucket_hi(b) - tel::bucket_lo(b),
                  tel::bucket_lo(b) / 4)
            << v;
      }
    }
  }
}

TEST(Histogram, PercentilesWithinQuantizationError) {
  tel::Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const tel::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.sum, 500500u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 500.5);
  for (const double p : {10.0, 50.0, 90.0, 99.0}) {
    const double exact = p * 10.0;  // uniform 1..1000
    const double got = s.percentile(p);
    EXPECT_GE(got, 0.75 * exact) << "p" << p;
    EXPECT_LE(got, 1.25 * exact + 1.0) << "p" << p;
  }
  // p100 clamps to the observed max, not the bucket's upper bound.
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 1000.0);
}

TEST(Histogram, SingleValueIsExactUnderClamp) {
  tel::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(7);
  const tel::HistogramSnapshot s = h.snapshot();
  // Interpolation inside bucket [7, 7.75) would overshoot; the clamp to
  // max pins every percentile to the one recorded value.
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(99.0), 7.0);
}

TEST(Histogram, ConcurrentRecordingMergesDeterministically) {
  // Per-slot atomics: the merged snapshot must equal the sequential
  // recording of the same multiset regardless of which thread/slot
  // recorded which value.
  tel::Histogram sequential;
  for (std::uint64_t v = 0; v < 4096; ++v) sequential.record(v * 37 % 5000);

  tel::Histogram concurrent;
  ThreadPool pool(4);
  pool.parallel_for_workers(
      0, 4096, 64, [&](unsigned worker, std::size_t b, std::size_t e) {
        for (std::size_t v = b; v < e; ++v) {
          concurrent.record(v * 37 % 5000, worker);
        }
      });

  const tel::HistogramSnapshot a = sequential.snapshot();
  const tel::HistogramSnapshot b = concurrent.snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST(Histogram, SnapshotDeltaSubtracts) {
  tel::Histogram h;
  h.record(10);
  h.record(100);
  const tel::HistogramSnapshot before = h.snapshot();
  h.record(1000);
  h.record(1000);
  tel::HistogramSnapshot delta = h.snapshot();
  delta -= before;
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.sum, 2000u);
  EXPECT_GE(delta.percentile(50.0), 750.0);  // within bucket quantization
  EXPECT_LE(delta.percentile(50.0), 1000.0);
}

TEST(IndexedCounter, WatermarkAndOutOfRangeDrops) {
  tel::IndexedCounter ic;
  ic.add(3, 10);
  ic.add(0, 1);
  ic.add(3, 5);
  const std::vector<std::uint64_t> v = ic.values();
  ASSERT_EQ(v.size(), 4u);  // watermark = highest index + 1
  EXPECT_EQ(v[0], 1u);
  EXPECT_EQ(v[1], 0u);
  EXPECT_EQ(v[3], 15u);
  EXPECT_EQ(ic.dropped(), 0u);
  ic.add(tel::kIndexedCapacity + 5, 1);
  EXPECT_EQ(ic.dropped(), 1u);
  EXPECT_EQ(ic.values().size(), 4u);
}

TEST(Series, BoundedWithDropAccounting) {
  tel::Series s(4);
  for (std::uint64_t i = 0; i < 10; ++i) s.push(i);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.dropped(), 6u);
  const std::vector<std::uint64_t> tail = s.values_from(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0], 2u);
  EXPECT_EQ(tail[1], 3u);
}

TEST(Tracer, ChromeTraceRoundTrips) {
  tel::Tracer& tracer = tel::Tracer::global();
  tracer.reset();
  tracer.set_recording(true);
  tracer.set_thread_label("gtest-main");
  tracer.emit("unit.span", "test", 1000, 500,
              {{"alpha", 1.0}, {"beta", 2.5}});
  tracer.emit(tracer.intern(std::string("unit.") + "interned"), "test", 2000,
              250);
  tracer.instant("unit.instant", "test", {{"k", 3.0}});
  tracer.set_recording(false);
  EXPECT_EQ(tracer.events(), 3u);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  tel::TraceDoc doc;
  std::string error;
  ASSERT_TRUE(tel::load_chrome_trace(os.str(), doc, &error)) << error;
  tracer.reset();

  ASSERT_EQ(doc.spans.size(), 3u);
  bool found_span = false, found_interned = false, found_instant = false;
  for (const tel::TraceSpan& s : doc.spans) {
    if (s.name == "unit.span") {
      found_span = true;
      EXPECT_EQ(s.ph, 'X');
      EXPECT_EQ(s.cat, "test");
      EXPECT_DOUBLE_EQ(s.dur_us, 0.5);  // 500 ns
      ASSERT_EQ(s.args.count("alpha"), 1u);
      EXPECT_DOUBLE_EQ(s.args.at("alpha"), 1.0);
      EXPECT_DOUBLE_EQ(s.args.at("beta"), 2.5);
    } else if (s.name == "unit.interned") {
      found_interned = true;
      // Rebase: earliest event (ts 1000 ns) maps to 0, so this one
      // lands at 1 us.
      EXPECT_DOUBLE_EQ(s.ts_us, 1.0);
    } else if (s.name == "unit.instant") {
      found_instant = true;
      EXPECT_EQ(s.ph, 'i');
    }
  }
  EXPECT_TRUE(found_span);
  EXPECT_TRUE(found_interned);
  EXPECT_TRUE(found_instant);
  bool labeled = false;
  for (const auto& [tid, name] : doc.thread_names) {
    if (name == "gtest-main") labeled = true;
  }
  EXPECT_TRUE(labeled);
}

/// The tracer's current contents as a Chrome-trace document.
std::string exported() {
  std::ostringstream os;
  tel::Tracer::global().write_chrome_trace(os);
  return os.str();
}

TEST(Tracer, ExportEscapesLabelsAndSpanNames) {
  tel::Tracer& tracer = tel::Tracer::global();
  tracer.reset();
  tracer.set_recording(true);
  const std::string label = "worker \"0\" \\ tab\there";
  const std::string name = "span \"quoted\" \\ back\\slash";
  tracer.set_thread_label(label);
  tracer.emit(tracer.intern(name), tracer.intern("c\"at"), 10, 5,
              {{"k\"ey", 1.0}});
  tracer.set_recording(false);
  const std::string text = exported();
  tracer.reset();
  tracer.set_thread_label("gtest-main");

  tel::TraceDoc doc;
  std::string error;
  ASSERT_TRUE(tel::load_chrome_trace(text, doc, &error)) << error;
  ASSERT_EQ(doc.spans.size(), 1u);
  EXPECT_EQ(doc.spans[0].name, name);
  EXPECT_EQ(doc.spans[0].cat, "c\"at");
  EXPECT_EQ(doc.spans[0].args.count("k\"ey"), 1u);
  EXPECT_EQ(doc.thread_names.at(doc.spans[0].tid), label);
}

TEST(Tracer, ExportedEventsLoadBackEventForEvent) {
  struct Span {
    const char* name;
    std::uint64_t ts_ns;
    std::uint64_t dur_ns;
    std::vector<tel::Arg> args;
  };
  const std::uint64_t base = 5'000'000'000;
  const std::vector<Span> spans = {
      {"first", base, 1, {}},
      {"exchange", base + 1'234'567, 999'999,
       {{"round", 3.0}, {"frac", 0.1}, {"neg", -2.5}, {"big", 9007199254740992.0}}},
      {"tiny", base + 1, 0, {{"tiny", 1e-300}}},
      {"late", base + 86'400'000'000'000, 123'456'789,
       {{"a", 1.0}, {"b", 2.0}, {"c", 1.0 / 3.0}, {"d", 5e-324}}},
  };
  tel::Tracer& tracer = tel::Tracer::global();
  tracer.reset();
  tracer.set_recording(true);
  for (const Span& sp : spans) {
    switch (sp.args.size()) {  // emit takes an initializer list
      case 0: tracer.emit(sp.name, "test", sp.ts_ns, sp.dur_ns); break;
      case 1:
        tracer.emit(sp.name, "test", sp.ts_ns, sp.dur_ns, {sp.args[0]});
        break;
      case 4:
        tracer.emit(sp.name, "test", sp.ts_ns, sp.dur_ns,
                    {sp.args[0], sp.args[1], sp.args[2], sp.args[3]});
        break;
    }
  }
  tracer.event(tel::EventKind::kCrash, 7, 42);
  tracer.set_recording(false);
  const std::string text = exported();
  tracer.reset();

  tel::TraceDoc doc;
  std::string error;
  ASSERT_TRUE(tel::load_chrome_trace(text, doc, &error)) << error;
  ASSERT_EQ(doc.spans.size(), spans.size() + 1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const tel::TraceSpan& got = doc.spans[i];
    EXPECT_EQ(got.name, spans[i].name);
    EXPECT_EQ(got.cat, "test");
    EXPECT_EQ(got.ph, 'X');
    EXPECT_EQ(got.tid, doc.spans[0].tid);
    // Rebased to the earliest event, in microseconds, bit for bit.
    EXPECT_EQ(got.ts_us, static_cast<double>(spans[i].ts_ns - base) / 1000.0);
    EXPECT_EQ(got.dur_us, static_cast<double>(spans[i].dur_ns) / 1000.0);
    ASSERT_EQ(got.args.size(), spans[i].args.size()) << got.name;
    for (const tel::Arg& a : spans[i].args) {
      EXPECT_EQ(got.args.at(a.key), a.value) << got.name << "." << a.key;
    }
  }
  const tel::TraceSpan& crash = doc.spans.back();
  EXPECT_EQ(crash.name, "crash");
  EXPECT_EQ(crash.cat, "event");
  EXPECT_EQ(crash.ph, 'i');
  EXPECT_EQ(crash.args.at("epoch"), 7.0);
  EXPECT_EQ(crash.args.at("vertex"), 42.0);
  EXPECT_EQ(text.back(), '\n');
  // One event per line: the header line, then one line per event.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            1 + doc.spans.size() + doc.thread_names.size() + 1);
}

TEST(TraceReader, SurvivesTruncationsAndByteFlips) {
  // Hostile input: every truncation of a valid trace and seeded
  // single-byte flips. Each parse returns true, or false with a
  // message; none may crash (this suite also runs under ASan/UBSan).
  tel::Tracer& tracer = tel::Tracer::global();
  tracer.reset();
  tracer.set_recording(true);
  tracer.emit("engine.exchange.p2", "engine", 1000, 2500,
              {{"shard", 1.0}, {"round", 2.0}, {"msgs", 0.375}});
  tracer.emit(tracer.intern("solve:\"x\\"), "api", 900, 5000);
  tracer.event(tel::EventKind::kRevive, 3, 11);
  tracer.set_recording(false);
  const std::string valid = exported();
  tracer.reset();
  tel::TraceDoc doc;
  std::string error;
  ASSERT_TRUE(tel::load_chrome_trace(valid, doc, &error)) << error;

  std::size_t rejected = 0;
  const auto check = [&](const std::string& text) {
    JsonValue value;
    std::string json_error;
    if (!parse_json(text, value, &json_error)) {
      EXPECT_FALSE(json_error.empty());
    }
    std::string trace_error;
    if (!tel::load_chrome_trace(text, doc, &trace_error)) {
      EXPECT_FALSE(trace_error.empty());
      ++rejected;
    }
  };
  for (std::size_t len = 0; len < valid.size(); ++len) {
    check(valid.substr(0, len));
  }
  Rng rng(20261020);
  for (int i = 0; i < 20000; ++i) {
    std::string text = valid;
    text[rng.below(text.size())] = static_cast<char>(rng.below(256));
    check(text);
  }
  // Every truncation short of the final newline is malformed.
  EXPECT_GE(rejected, valid.size() - 1);
}

TEST(TraceReader, RejectsMalformedDocuments) {
  tel::TraceDoc doc;
  std::string error;
  EXPECT_FALSE(tel::load_chrome_trace("{", doc, &error));
  EXPECT_FALSE(tel::load_chrome_trace("[]", doc, &error));  // root: object
  EXPECT_FALSE(tel::load_chrome_trace("{\"traceEvents\": 3}", doc, &error));
  EXPECT_FALSE(tel::load_chrome_trace(
      "{\"traceEvents\": [{\"ph\": \"X\", \"ts\": 0, \"dur\": 1}]}", doc,
      &error));  // missing name
  EXPECT_FALSE(tel::load_chrome_trace("{\"traceEvents\": []} trailing", doc,
                                      &error));
  // Nesting past the reader's depth cap is refused with one message, not
  // a stack overflow.
  const std::string deep = "{\"traceEvents\": " + std::string(200000, '[') +
                           std::string(200000, ']') + "}";
  EXPECT_FALSE(tel::load_chrome_trace(deep, doc, &error));
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
  // A tid outside [0, 2^32) names its event instead of converting.
  for (const char* tid : {"-5", "1e20", "0.5", "\"main\""}) {
    EXPECT_FALSE(tel::load_chrome_trace(
        std::string("{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"i\", "
                    "\"ts\": 0, \"tid\": ") +
            tid + "}]}",
        doc, &error))
        << tid;
    EXPECT_EQ(error, "traceEvents[0] tid is not an integer in [0, 2^32)")
        << tid;
  }
  EXPECT_TRUE(tel::load_chrome_trace("{\"traceEvents\": []}", doc, &error))
      << error;
  EXPECT_TRUE(doc.spans.empty());
}

TEST(Telemetry, EngineClientsBitIdenticalWithTelemetryOn) {
  // The acceptance-critical contract: metrics, trace recording and a
  // silent Monitor sampling the engine's counters change nothing about
  // any engine client's execution.
  tel::Tracer& tracer = tel::Tracer::global();
  const bool prev_enabled = tel::enabled();
  for (const test_support::ShardCase& c : test_support::kEngineCases) {
    const api::SolveResult base = test_support::solve_with(c, nullptr);
    tel::set_enabled(true);
    tracer.reset();
    tracer.set_recording(true);
    tel::MonitorOptions mo;
    mo.interval_ms = 20;
    mo.out = nullptr;  // silent sampling; no watchdog
    tel::Monitor monitor(mo);
    const api::SolveResult traced = test_support::solve_with(c, nullptr);
    monitor.stop();
    tracer.set_recording(false);
    tel::set_enabled(prev_enabled);
    test_support::expect_identical(
        base, traced, std::string(c.solver) + " telemetry on vs off");
    EXPECT_GT(tracer.events(), 0u)
        << c.solver << " recorded no spans with tracing on";
  }
  tracer.reset();
}

}  // namespace
}  // namespace lps
