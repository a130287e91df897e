#include "sim/json.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "sim/report.hpp"
#include "sim/sweep.hpp"

namespace mobichk::sim {
namespace {

std::string compact(std::function<void(JsonWriter&)> build) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  build(w);
  return os.str();
}

TEST(JsonWriter, EmptyObjectAndArray) {
  EXPECT_EQ(compact([](JsonWriter& w) { w.begin_object().end_object(); }), "{}");
  EXPECT_EQ(compact([](JsonWriter& w) { w.begin_array().end_array(); }), "[]");
}

TEST(JsonWriter, SimpleFields) {
  const std::string s = compact([](JsonWriter& w) {
    w.begin_object();
    w.field("a", u64{1}).field("b", 2.5).field("c", "x").field("d", true);
    w.end_object();
  });
  EXPECT_EQ(s, R"({"a": 1,"b": 2.5,"c": "x","d": true})");
}

TEST(JsonWriter, NestedStructures) {
  const std::string s = compact([](JsonWriter& w) {
    w.begin_object();
    w.key("list").begin_array();
    w.value(u64{1});
    w.value(u64{2});
    w.begin_object();
    w.field("k", "v");
    w.end_object();
    w.end_array();
    w.end_object();
  });
  EXPECT_EQ(s, R"({"list": [1,2,{"k": "v"}]})");
}

TEST(JsonWriter, EscapesStrings) {
  const std::string s = compact([](JsonWriter& w) {
    w.begin_object();
    w.field("quote\"back\\slash", "line\nbreak\ttab");
    w.end_object();
  });
  EXPECT_EQ(s, R"({"quote\"back\\slash": "line\nbreak\ttab"})");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  const std::string s = compact([](JsonWriter& w) {
    w.begin_array();
    w.value(std::numeric_limits<f64>::infinity());
    w.value(std::numeric_limits<f64>::quiet_NaN());
    w.end_array();
  });
  EXPECT_EQ(s, "[null,null]");
}

TEST(JsonWriter, NegativeIntegers) {
  const std::string s = compact([](JsonWriter& w) {
    w.begin_array();
    w.value(i64{-42});
    w.value(-1);
    w.end_array();
  });
  EXPECT_EQ(s, "[-42,-1]");
}

TEST(JsonReport, RunResultContainsAllSections) {
  SimConfig cfg;
  cfg.sim_length = 3'000.0;
  cfg.seed = 8;
  const RunResult r = run_experiment(cfg);
  std::ostringstream os;
  write_json(os, r);
  const std::string s = os.str();
  for (const char* needle :
       {"\"config\"", "\"network\"", "\"protocols\"", "\"TP\"", "\"BCS\"", "\"QBC\"",
        "\"n_tot\"", "\"handoffs\"", "\"trace_hash\""}) {
    EXPECT_NE(s.find(needle), std::string::npos) << needle;
  }
  // Balanced braces (cheap well-formedness check).
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'), std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['), std::count(s.begin(), s.end(), ']'));
}

TEST(GnuplotReport, FigureScriptIsWellFormed) {
  FigureSpec spec;
  spec.title = "gp-test";
  spec.base.sim_length = 2'000.0;
  spec.t_switch_values = {500.0, 1'000.0};
  spec.min_seeds = 2;
  spec.max_seeds = 2;
  const FigureResult result = run_figure(spec);
  std::ostringstream os;
  result.write_gnuplot(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("set logscale xy"), std::string::npos);
  EXPECT_NE(s.find("\"gp-test\""), std::string::npos);
  // One inline data block terminator per protocol series.
  usize blocks = 0;
  for (usize pos = 0; (pos = s.find("\ne\n", pos)) != std::string::npos; ++pos) ++blocks;
  EXPECT_EQ(blocks, result.protocol_names.size());
  // Every series has one data row per sweep point.
  EXPECT_NE(s.find("500 "), std::string::npos);
  EXPECT_NE(s.find("1000 "), std::string::npos);
}

TEST(JsonReport, FigureResultSerializes) {
  FigureSpec spec;
  spec.title = "json-test";
  spec.base.sim_length = 2'000.0;
  spec.t_switch_values = {500.0, 1'000.0};
  spec.min_seeds = 2;
  spec.max_seeds = 2;
  const FigureResult result = run_figure(spec);
  std::ostringstream os;
  write_json(os, result);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"json-test\""), std::string::npos);
  EXPECT_NE(s.find("\"points\""), std::string::npos);
  EXPECT_NE(s.find("\"ci95\""), std::string::npos);
  // Adaptive-precision additions: echo of the target, per-point
  // replication spend, and the sweep ledger.
  for (const char* needle : {"\"precision\"", "\"target_relative_ci\"", "\"replications\"",
                             "\"target_met\"", "\"relative_ci95\"", "\"ledger\"",
                             "\"events_per_second\"", "\"wall_seconds\""}) {
    EXPECT_NE(s.find(needle), std::string::npos) << needle;
  }
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'), std::count(s.begin(), s.end(), '}'));
  // The report must be parseable by our own reader.
  const JsonValue doc = json_parse(s);
  EXPECT_EQ(doc.at("title").as_string(), "json-test");
  EXPECT_EQ(doc.at("points").as_array().size(), 2u);
  EXPECT_EQ(doc.at("ledger").at("replications_used").as_u64(),
            result.ledger.replications_used);
}

// ---------------------------------------------------------------------------
// json_parse
// ---------------------------------------------------------------------------

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json_parse("null").is_null());
  EXPECT_TRUE(json_parse("true").as_bool());
  EXPECT_FALSE(json_parse("false").as_bool());
  EXPECT_DOUBLE_EQ(json_parse("-2.5e2").as_f64(), -250.0);
  EXPECT_EQ(json_parse("42").as_u64(), 42u);
  EXPECT_EQ(json_parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, NestedContainersAndOrder) {
  const JsonValue doc = json_parse(R"({"b": [1, {"k": true}], "a": null})");
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  ASSERT_EQ(doc.object.size(), 2u);
  EXPECT_EQ(doc.object[0].first, "b");  // insertion order preserved
  EXPECT_EQ(doc.object[1].first, "a");
  const auto& arr = doc.at("b").as_array();
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr[0].as_u64(), 1u);
  EXPECT_TRUE(arr[1].at("k").as_bool());
  EXPECT_TRUE(doc.at("a").is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), std::out_of_range);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(json_parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(json_parse(R"("Aé")").as_string(), "A\xc3\xa9");  // A, é (UTF-8)
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,", "tru", "1 2", "{\"a\" 1}", "{\"a\": 1,}",
                          "\"unterminated", "\"\\ud834\\udd1e\"", "nan", "01x"}) {
    EXPECT_THROW(json_parse(bad), std::invalid_argument) << bad;
  }
}

TEST(JsonParse, TypedAccessorsRejectWrongKinds) {
  EXPECT_THROW(json_parse("true").as_f64(), std::invalid_argument);
  EXPECT_THROW(json_parse("\"x\"").as_bool(), std::invalid_argument);
  EXPECT_THROW(json_parse("1").as_array(), std::invalid_argument);
  EXPECT_THROW(json_parse("-1").as_u64(), std::invalid_argument);
}

TEST(JsonParse, RejectsOverDeepNesting) {
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += '[';
  for (int i = 0; i < 80; ++i) deep += ']';
  EXPECT_THROW(json_parse(deep), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Result round-trips through the writer + reader pair
// ---------------------------------------------------------------------------

TEST(JsonParse, ExactU64AboveDoublePrecision) {
  // Trace hashes are full-width u64s; 0xd165928ffbf08bb4 > 2^53, so a
  // parse that squeezes numbers through a double corrupts the low bits.
  const u64 hash = 0xd165928ffbf08bb4ull;
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object().field("trace_hash", hash).end_object();
  const JsonValue doc = json_parse(os.str());
  EXPECT_EQ(doc.at("trace_hash").as_u64(), hash);
  EXPECT_EQ(json_parse("18446744073709551615").as_u64(), ~u64{0});  // u64 max
  EXPECT_THROW(json_parse("18446744073709551616").as_u64(), std::invalid_argument);
  // Scientific / fractional integers still work through the f64 path.
  EXPECT_EQ(json_parse("1e3").as_u64(), 1000u);
}

TEST(JsonRoundTrip, RunResultThroughParserIsByteIdentical) {
  SimConfig cfg;
  cfg.sim_length = 2'000.0;
  cfg.seed = 13;
  ExperimentOptions opts;
  opts.collect_trace_hash = true;
  obs::RunObserver observer;
  opts.observer = &observer;
  const RunResult r = run_experiment(cfg, opts);
  ASSERT_FALSE(r.metrics.empty());

  std::ostringstream first;
  write_json(first, r);
  const RunResult back = run_result_from_json(json_parse(first.str()));
  std::ostringstream second;
  write_json(second, back);
  EXPECT_EQ(first.str(), second.str());

  // Spot-check the recovered struct, not just the re-serialization.
  EXPECT_EQ(back.trace_hash, r.trace_hash);
  EXPECT_EQ(back.events_executed, r.events_executed);
  EXPECT_EQ(back.cfg.seed, r.cfg.seed);
  EXPECT_EQ(back.net.handoffs, r.net.handoffs);
  ASSERT_EQ(back.protocols.size(), r.protocols.size());
  EXPECT_EQ(back.protocols[0].name, r.protocols[0].name);
  EXPECT_EQ(back.protocols[0].kind, r.protocols[0].kind);
  EXPECT_EQ(back.protocols[0].n_tot, r.protocols[0].n_tot);
  EXPECT_EQ(back.invariants.cancels_effective, r.invariants.cancels_effective);
  EXPECT_EQ(back.invariants.cancels_noop(), r.invariants.cancels_noop());
  ASSERT_EQ(back.metrics.size(), r.metrics.size());
  EXPECT_EQ(back.metrics[0].name, r.metrics[0].name);
  EXPECT_DOUBLE_EQ(back.metrics[0].value, r.metrics[0].value);
}

TEST(JsonRoundTrip, RunResultWithoutObserverHasNoMetricsSection) {
  SimConfig cfg;
  cfg.sim_length = 1'000.0;
  const RunResult r = run_experiment(cfg);
  std::ostringstream os;
  write_json(os, r);
  EXPECT_EQ(os.str().find("\"metrics\""), std::string::npos);
  const RunResult back = run_result_from_json(json_parse(os.str()));
  EXPECT_TRUE(back.metrics.empty());
  std::ostringstream again;
  write_json(again, back);
  EXPECT_EQ(os.str(), again.str());
}

TEST(JsonRoundTrip, SweepLedgerAllFields) {
  SweepLedger ledger;
  ledger.wall_seconds = 1.5;
  ledger.events_executed = 123'456;
  ledger.replications_run = 42;
  ledger.replications_used = 40;
  ledger.replication_cap = 112;
  ledger.barrier_stall_seconds = 0.25;
  ledger.point_wall_seconds = {0.75, 0.5, 0.25};

  std::ostringstream os;
  write_json(os, ledger);
  // barrier_stall_seconds is always emitted, even for this sequential
  // (shards == 1) ledger, so run-to-run cost diffs never lose the field.
  EXPECT_NE(os.str().find("\"barrier_stall_seconds\""), std::string::npos);
  const SweepLedger back = sweep_ledger_from_json(json_parse(os.str()));
  EXPECT_DOUBLE_EQ(back.wall_seconds, ledger.wall_seconds);
  EXPECT_EQ(back.events_executed, ledger.events_executed);
  EXPECT_EQ(back.replications_run, ledger.replications_run);
  EXPECT_EQ(back.replications_used, ledger.replications_used);
  EXPECT_EQ(back.replication_cap, ledger.replication_cap);
  EXPECT_DOUBLE_EQ(back.barrier_stall_seconds, ledger.barrier_stall_seconds);
  ASSERT_EQ(back.point_wall_seconds.size(), ledger.point_wall_seconds.size());
  for (usize p = 0; p < ledger.point_wall_seconds.size(); ++p) {
    EXPECT_DOUBLE_EQ(back.point_wall_seconds[p], ledger.point_wall_seconds[p]);
  }
  EXPECT_DOUBLE_EQ(back.events_per_second(), ledger.events_per_second());
  std::ostringstream again;
  write_json(again, back);
  EXPECT_EQ(os.str(), again.str());
}

TEST(JsonRoundTrip, SweepLedgerFromFigureResultDocument) {
  FigureSpec spec;
  spec.title = "ledger-rt";
  spec.base.sim_length = 2'000.0;
  spec.t_switch_values = {500.0};
  spec.min_seeds = 2;
  spec.max_seeds = 2;
  const FigureResult result = run_figure(spec);
  std::ostringstream os;
  write_json(os, result);
  const SweepLedger back = sweep_ledger_from_json(json_parse(os.str()).at("ledger"));
  EXPECT_EQ(back.replications_run, result.ledger.replications_run);
  EXPECT_EQ(back.replications_used, result.ledger.replications_used);
  EXPECT_EQ(back.replication_cap, result.ledger.replication_cap);
  EXPECT_EQ(back.events_executed, result.ledger.events_executed);
  ASSERT_EQ(back.point_wall_seconds.size(), result.ledger.point_wall_seconds.size());
}

}  // namespace
}  // namespace mobichk::sim
