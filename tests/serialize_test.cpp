#include "engine/serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "protocols/protocols.h"
#include "report/json.h"
#include "sched/schedulers.h"

namespace dmf {
namespace {

using report::Json;

TEST(Json, BuildsNestedStructures) {
  Json obj = Json::object();
  obj.set("name", Json::string("dmf"))
      .set("count", Json::number(std::uint64_t{42}))
      .set("ratio", Json::number(0.5))
      .set("ok", Json::boolean(true));
  Json arr = Json::array();
  arr.push(Json::number(std::uint64_t{1})).push(Json::string("two"));
  obj.set("items", std::move(arr));
  const std::string text = obj.dump();
  EXPECT_EQ(text,
            "{\"name\":\"dmf\",\"count\":42,\"ratio\":0.5,\"ok\":true,"
            "\"items\":[1,\"two\"]}");
}

TEST(Json, PrettyPrintsWithIndent) {
  Json obj = Json::object();
  obj.set("a", Json::number(std::uint64_t{1}));
  const std::string text = obj.dump(2);
  EXPECT_NE(text.find("{\n  \"a\": 1\n}"), std::string::npos);
}

TEST(Json, EscapesSpecialCharacters) {
  EXPECT_EQ(report::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(Json::string("\t").dump(), "\"\\t\"");
  EXPECT_EQ(report::jsonEscape(std::string(1, '\x01')), "\\u0001");

  // Every escape class in a key and in a value, compact and pretty: quote,
  // backslash, \n, \t, \r, the control bytes 0x01 and 0x1f, and a UTF-8
  // multibyte character (passed through as raw bytes).
  const std::string special =
      "q\"b\\n\nt\tr\r" + std::string(1, '\x01') + std::string(1, '\x1f') +
      "\xC3\xA9";
  const std::string escaped =
      "q\\\"b\\\\n\\nt\\tr\\r\\u0001\\u001f\xC3\xA9";
  EXPECT_EQ(report::jsonEscape(special), escaped);
  Json obj = Json::object();
  obj.set(special, special);
  EXPECT_EQ(obj.dump(0), "{\"" + escaped + "\":\"" + escaped + "\"}");
  EXPECT_EQ(obj.dump(2),
            "{\n  \"" + escaped + "\": \"" + escaped + "\"\n}\n");
  Json arr = Json::array();
  arr.push(Json::string(special)).push(Json::string(""));
  EXPECT_EQ(arr.dump(0), "[\"" + escaped + "\",\"\"]");
  EXPECT_EQ(arr.dump(2), "[\n  \"" + escaped + "\",\n  \"\"\n]\n");
}

TEST(Json, NumbersRenderExactly) {
  Json arr = Json::array();
  arr.push(Json::number(std::uint64_t{0}))
      .push(Json::number(UINT64_MAX))
      .push(Json::number(0.1))
      .push(Json::number(1e-7))
      .push(Json::number(2.5e20));
  EXPECT_EQ(arr.dump(0), "[0,18446744073709551615,0.1,1e-07,2.5e+20]");
  EXPECT_EQ(arr.dump(2),
            "[\n  0,\n  18446744073709551615,\n  0.1,\n  1e-07,\n"
            "  2.5e+20\n]\n");
  Json nested = Json::object();
  nested.set("a", std::uint64_t{0}).set("b", Json::array());
  Json inner = Json::object();
  inner.set("c", 0.1);
  nested.set("d", std::move(inner));
  EXPECT_EQ(nested.dump(0), "{\"a\":0,\"b\":[],\"d\":{\"c\":0.1}}");
  EXPECT_EQ(nested.dump(2),
            "{\n  \"a\": 0,\n  \"b\": [],\n"
            "  \"d\": {\n    \"c\": 0.1\n  }\n}\n");
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::object().dump(), "{}");
  EXPECT_EQ(Json::array().dump(), "[]");
}

TEST(Json, TypeMisuseThrows) {
  Json arr = Json::array();
  EXPECT_THROW(arr.set("x", Json::boolean(false)), std::logic_error);
  Json obj = Json::object();
  EXPECT_THROW(obj.push(Json::boolean(false)), std::logic_error);
  EXPECT_THROW(Json::number(std::nan("")), std::invalid_argument);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), std::invalid_argument);
  EXPECT_THROW(Json::parse("{\"a\":"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1,2"), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"bad escape \\q\""), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"truncated \\u12\""), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"bad hex \\u12zz\""), std::invalid_argument);
  EXPECT_THROW(Json::parse("tru"), std::invalid_argument);
  EXPECT_THROW(Json::parse("1e999999"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{} trailing"), std::invalid_argument);
}

TEST(Json, ParseRejectsTrailingGarbage) {
  // A daemon reading line-delimited JSON must treat "one value plus
  // anything else" as malformed, not silently take the prefix.
  EXPECT_THROW(Json::parse("{} x"), std::invalid_argument);
  EXPECT_THROW(Json::parse("1 2"), std::invalid_argument);
  EXPECT_THROW(Json::parse("true false"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1] [2]"), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"a\"\"b\""), std::invalid_argument);
  // Trailing whitespace (including the \r of a CRLF line) is fine.
  EXPECT_NO_THROW(Json::parse("{} \t\r\n"));
}

TEST(Json, ParseRejectsMalformedUnicodeEscapes) {
  // Lone surrogate halves are not scalar values (RFC 8259 §8.2).
  EXPECT_THROW(Json::parse("\"\\uD800\""), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"\\uDC00\""), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"\\uD83Dx\""), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"\\uD83D\\n\""), std::invalid_argument);
  // A high surrogate followed by a non-low \u escape is equally broken.
  EXPECT_THROW(Json::parse("\"\\uD83D\\u0041\""), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"\\uD83D\\uD83D\""), std::invalid_argument);
}

TEST(Json, ParseDecodesSurrogatePairs) {
  // U+1F600 as a surrogate pair must decode to its 4-byte UTF-8 form.
  const Json emoji = Json::parse("\"\\uD83D\\uDE00\"");
  EXPECT_EQ(emoji.asString(), "\xF0\x9F\x98\x80");
  // BMP escapes keep working alongside.
  EXPECT_EQ(Json::parse("\"\\u00E9\"").asString(), "\xC3\xA9");
  EXPECT_EQ(Json::parse("\"\\u0041\"").asString(), "A");
}

TEST(Json, ParseRejectsNonGrammarNumbers) {
  // RFC 8259 number grammar: no leading +, no leading zeros, no bare
  // dot/exponent. strtod accepts all of these, the grammar does not.
  EXPECT_THROW(Json::parse("+5"), std::invalid_argument);
  EXPECT_THROW(Json::parse("05"), std::invalid_argument);
  EXPECT_THROW(Json::parse("-05"), std::invalid_argument);
  EXPECT_THROW(Json::parse("5."), std::invalid_argument);
  EXPECT_THROW(Json::parse(".5"), std::invalid_argument);
  EXPECT_THROW(Json::parse("-"), std::invalid_argument);
  EXPECT_THROW(Json::parse("1e"), std::invalid_argument);
  EXPECT_THROW(Json::parse("1e+"), std::invalid_argument);
  EXPECT_THROW(Json::parse("0x10"), std::invalid_argument);
  EXPECT_THROW(Json::parse("1.2.3"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[01]"), std::invalid_argument);
}

TEST(Json, ParseAcceptsGrammarNumbers) {
  EXPECT_EQ(Json::parse("0").asUint(), 0u);
  EXPECT_DOUBLE_EQ(Json::parse("-0").asDouble(), 0.0);
  EXPECT_EQ(Json::parse("42").asUint(), 42u);
  EXPECT_DOUBLE_EQ(Json::parse("0.25").asDouble(), 0.25);
  // The writer emits %.10g forms like 1e+06 — the parser must take its own
  // output back (round-trip), including exponents with an explicit sign.
  EXPECT_DOUBLE_EQ(Json::parse("1e+06").asDouble(), 1e6);
  EXPECT_DOUBLE_EQ(Json::parse("1E-2").asDouble(), 0.01);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e3").asDouble(), -2500.0);
}

TEST(Json, ParseRejectsExcessiveNesting) {
  // 256 levels are accepted; 257 must be rejected before the recursive
  // descent can exhaust the stack.
  std::string ok(256, '[');
  ok.append(256, ']');
  EXPECT_NO_THROW(Json::parse(ok));
  std::string deepArrays(257, '[');
  deepArrays.append(257, ']');
  EXPECT_THROW(Json::parse(deepArrays), std::invalid_argument);
  std::string deepObjects;
  for (int i = 0; i < 300; ++i) deepObjects += "{\"k\":";
  deepObjects += "0";
  for (int i = 0; i < 300; ++i) deepObjects += "}";
  EXPECT_THROW(Json::parse(deepObjects), std::invalid_argument);
  // A pathological input with no closers must fail, not recurse forever.
  EXPECT_THROW(Json::parse(std::string(100000, '[')), std::invalid_argument);
}

TEST(Serialize, MdstResultRoundsAllMetrics) {
  engine::MdstEngine engine(protocols::pcrMasterMixRatio());
  engine::MdstRequest request;
  request.demand = 20;
  request.scheme = engine::Scheme::kSRS;
  const std::string json = engine::toJson(engine.run(request)).dump();
  EXPECT_NE(json.find("\"mixSplits\":27"), std::string::npos);
  EXPECT_NE(json.find("\"waste\":5"), std::string::npos);
  EXPECT_NE(json.find("\"inputDroplets\":25"), std::string::npos);
  EXPECT_NE(json.find("\"inputPerFluid\":[3,2,2,2,2,2,12]"),
            std::string::npos);
}

TEST(Serialize, ScheduleListsEveryTaskOnce) {
  engine::MdstEngine engine(protocols::pcrMasterMixRatio());
  const forest::TaskForest forest =
      engine.buildForest(mixgraph::Algorithm::MM, 20);
  const sched::Schedule schedule = sched::scheduleSRS(forest, 3);
  const std::string json = engine::toJson(forest, schedule).dump();
  std::size_t taskEntries = 0;
  for (std::size_t pos = json.find("\"cycle\":"); pos != std::string::npos;
       pos = json.find("\"cycle\":", pos + 1)) {
    ++taskEntries;
  }
  EXPECT_EQ(taskEntries, forest.taskCount());
  EXPECT_NE(json.find("\"fate\":\"target\""), std::string::npos);
  EXPECT_NE(json.find("\"fate\":\"waste\""), std::string::npos);
  EXPECT_NE(json.find("\"scheme\":\"SRS\""), std::string::npos);
}

TEST(Serialize, FaultFreePipelineOutputIsPinned) {
  // Regression pin: the serialized plan for the paper's PCR example must
  // stay byte-identical while fault injection is disabled. If an intentional
  // format change trips this, re-pin the hash (FNV-1a over dump()).
  engine::MdstEngine engine(protocols::pcrMasterMixRatio());
  const forest::TaskForest forest =
      engine.buildForest(mixgraph::Algorithm::MM, 20);
  const sched::Schedule schedule = sched::scheduleSRS(forest, 3);
  const std::string json = engine::toJson(forest, schedule).dump();
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const char ch : json) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x100000001B3ull;
  }
  EXPECT_EQ(hash, 0x7CA1A16BD6C4DD56ull)
      << "serialized schedule changed; first bytes: "
                          << json.substr(0, 120);
}

TEST(Serialize, StreamingPlanRoundTrips) {
  engine::MdstEngine engine(protocols::pcrMasterMixRatio());
  engine::StreamingRequest request;
  request.demand = 32;
  request.storageCap = 3;
  request.mixers = 3;
  const engine::StreamingPlan plan = planStreaming(engine, request);
  const std::string json = engine::toJson(plan).dump(2);
  EXPECT_NE(json.find("\"passes\""), std::string::npos);
  EXPECT_NE(json.find("\"peakStorage\": 3"), std::string::npos);
}

// --------------------------------------------------------------------------
// Lossless fromJson round trips (the journal's resume path depends on
// toJson(fromJson(j)) dumping byte-identically to j).

TEST(Serialize, StreamingPlanGoldenRoundTripsPinned) {
  engine::StreamingPass pass;
  pass.demand = 4;
  pass.cycles = 7;
  pass.storageUnits = 3;
  pass.waste = 1;
  pass.inputDroplets = 6;
  pass.mixSplits = 7;
  engine::StreamingPlan plan;
  plan.perPassDemand = 4;
  plan.passes = {pass, pass};
  plan.totalCycles = 14;
  plan.totalWaste = 2;
  plan.totalInput = 12;
  plan.storageUnits = 3;
  plan.mixers = 2;
  const std::string kGolden =
      "{\"perPassDemand\":4,\"totalCycles\":14,\"totalWaste\":2,"
      "\"totalInput\":12,\"peakStorage\":3,\"mixers\":2,\"passes\":["
      "{\"demand\":4,\"cycles\":7,\"storage\":3,\"waste\":1,\"input\":6,"
      "\"mixSplits\":7},"
      "{\"demand\":4,\"cycles\":7,\"storage\":3,\"waste\":1,\"input\":6,"
      "\"mixSplits\":7}]}";
  EXPECT_EQ(engine::toJson(plan).dump(), kGolden);
  const engine::StreamingPlan rebuilt =
      engine::streamingPlanFromJson(Json::parse(kGolden));
  EXPECT_EQ(engine::toJson(rebuilt).dump(), kGolden);
  EXPECT_EQ(rebuilt.perPassDemand, 4u);
  ASSERT_EQ(rebuilt.passes.size(), 2u);
  EXPECT_EQ(rebuilt.passes[1].inputDroplets, 6u);
}

TEST(Serialize, StreamingPlanFromRealPlannerIsLossless) {
  engine::MdstEngine engine(protocols::pcrMasterMixRatio());
  engine::StreamingRequest request;
  request.demand = 32;
  request.storageCap = 3;
  request.mixers = 3;
  const engine::StreamingPlan plan = planStreaming(engine, request);
  const std::string dumped = engine::toJson(plan).dump();
  EXPECT_EQ(
      engine::toJson(engine::streamingPlanFromJson(Json::parse(dumped))).dump(),
      dumped);
}

TEST(Serialize, StreamingPlanFromJsonRejectsMalformedDocs) {
  EXPECT_THROW(engine::streamingPlanFromJson(Json::parse("[]")),
               std::invalid_argument);
  EXPECT_THROW(engine::streamingPlanFromJson(Json::parse("{}")),
               std::invalid_argument);
  EXPECT_THROW(engine::streamingPlanFromJson(Json::parse(
                   "{\"perPassDemand\":true}")),
               std::invalid_argument);
}

TEST(Serialize, RecoveryReportGoldenRoundTripsPinned) {
  engine::RecoveryReport report;
  report.demand = 8;
  report.delivered = 7;
  report.shortfall = 1;
  report.escapedErrors = 0;
  report.discarded = 2;
  fault::FaultEvent event;
  event.kind = fault::FaultKind::kSplitImbalance;
  event.cycle = 5;
  event.magnitude = 0.041;
  event.detail = "m3.2 split err 0.041";
  report.faults = {event};
  report.baseCompletion = 9;
  report.completionCycle = 12;
  report.retryBudget = 4;
  report.roundsUsed = 1;
  engine::RepairRound round;
  round.cycle = 6;
  round.span = 3;
  round.needs = {forest::NodeDemand{2, 1}};
  round.mixSplits = 3;
  round.inputDroplets = 2;
  round.actuations = 0;
  report.rounds = {round};
  report.extraMixSplits = 3;
  report.extraInputDroplets = 2;
  report.extraActuations = 0;
  report.mixersLost = 0;
  report.storageLost = 1;
  report.degraded = true;
  report.degradationReason = "storage exhausted";
  report.deadCells = {chip::Cell{4, 7}};
  const std::string kGolden =
      "{\"demand\":8,\"delivered\":7,\"shortfall\":1,\"escapedErrors\":0,"
      "\"discarded\":2,\"faultsInjected\":1,\"baseCompletion\":9,"
      "\"completionCycle\":12,\"retryBudget\":4,\"roundsUsed\":1,"
      "\"extraMixSplits\":3,\"extraInputDroplets\":2,\"extraActuations\":0,"
      "\"mixersLost\":0,\"storageLost\":1,\"degraded\":true,"
      "\"degradationReason\":\"storage exhausted\",\"faults\":["
      "{\"kind\":\"split\",\"cycle\":5,\"detail\":\"m3.2 split err 0.041\","
      "\"magnitude\":0.041}],\"rounds\":[{\"cycle\":6,\"span\":3,"
      "\"mixSplits\":3,\"inputDroplets\":2,\"actuations\":0,\"needs\":["
      "{\"node\":2,\"count\":1}]}],\"deadCells\":[[4,7]]}";
  EXPECT_EQ(engine::toJson(report).dump(), kGolden);
  const engine::RecoveryReport rebuilt =
      engine::recoveryReportFromJson(Json::parse(kGolden));
  EXPECT_EQ(engine::toJson(rebuilt).dump(), kGolden);
  ASSERT_EQ(rebuilt.faults.size(), 1u);
  EXPECT_EQ(rebuilt.faults[0].kind, fault::FaultKind::kSplitImbalance);
  EXPECT_DOUBLE_EQ(rebuilt.faults[0].magnitude, 0.041);
  ASSERT_EQ(rebuilt.deadCells.size(), 1u);
  EXPECT_EQ(rebuilt.deadCells[0].x, 4);
  EXPECT_EQ(rebuilt.deadCells[0].y, 7);
}

TEST(Serialize, RecoveryReportFromRealRunIsLossless) {
  engine::MdstEngine engine(protocols::pcrMasterMixRatio());
  const forest::TaskForest forest = engine.buildForest(
      mixgraph::Algorithm::MM, 16);
  const sched::Schedule schedule = sched::scheduleSRS(forest, 2);
  engine::RecoveryOptions options;
  options.seed = 11;
  options.faults = fault::FaultSpec::parse("split=0.05,loss=0.03");
  const engine::RecoveryReport report =
      engine::RecoveryEngine{options}.run(forest, schedule);
  const std::string dumped = engine::toJson(report).dump();
  EXPECT_EQ(engine::toJson(engine::recoveryReportFromJson(Json::parse(dumped)))
                .dump(),
            dumped);
}

TEST(Serialize, RecoveryReportFromJsonRejectsMalformedDocs) {
  EXPECT_THROW(engine::recoveryReportFromJson(Json::parse("7")),
               std::invalid_argument);
  EXPECT_THROW(engine::recoveryReportFromJson(Json::parse("{\"demand\":1}")),
               std::invalid_argument);
}

}  // namespace
}  // namespace dmf
