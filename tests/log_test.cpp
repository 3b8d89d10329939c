// Structured JSON-lines logging (DESIGN.md §14): level parsing and
// filtering, byte-deterministic field order, trace correlation with the
// span context of the emitting thread, the single-installation contract,
// and the near-free disabled path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/log.h"
#include "obs/scope.h"
#include "report/json.h"

namespace dmf::obs {
namespace {

namespace fs = std::filesystem;

/// A scratch log file path, removed on destruction.
class TempLog {
 public:
  explicit TempLog(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("dmf_log_test_" + tag + "_" +
              std::to_string(static_cast<unsigned long>(::getpid())) +
              ".jsonl"))
                .string();
    fs::remove(path_);
  }
  ~TempLog() {
    std::error_code ec;
    fs::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

  [[nodiscard]] std::vector<std::string> lines() const {
    std::ifstream in(path_);
    std::vector<std::string> out;
    std::string line;
    while (std::getline(in, line)) out.push_back(line);
    return out;
  }

 private:
  std::string path_;
};

TEST(LogLevelTest, ParseRoundTripsEveryName) {
  for (const LogLevel level :
       {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn, LogLevel::kError,
        LogLevel::kOff}) {
    EXPECT_EQ(parseLogLevel(logLevelName(level)), level);
  }
  EXPECT_THROW((void)parseLogLevel("chatty"), std::invalid_argument);
  EXPECT_THROW((void)parseLogLevel(""), std::invalid_argument);
  EXPECT_THROW((void)parseLogLevel("INFO"), std::invalid_argument);
}

TEST(LogTest, DisabledPathEmitsNothing) {
  EXPECT_FALSE(logEnabled(LogLevel::kError));
  EXPECT_EQ(loggerFor(LogLevel::kError), nullptr);
  // Building a LogLine with no logger installed is inert and must not crash.
  LogLine(LogLevel::kError, "ignored").str("k", "v").num("n", 1);
}

TEST(LogTest, ThresholdFiltersRecords) {
  TempLog file("threshold");
  Logger::Options options;
  options.level = LogLevel::kWarn;
  options.path = file.path();
  Logger logger(options);
  {
    const LogScope scope(logger);
    EXPECT_FALSE(logEnabled(LogLevel::kDebug));
    EXPECT_FALSE(logEnabled(LogLevel::kInfo));
    EXPECT_TRUE(logEnabled(LogLevel::kWarn));
    EXPECT_TRUE(logEnabled(LogLevel::kError));
    LogLine(LogLevel::kDebug, "dropped.debug");
    LogLine(LogLevel::kInfo, "dropped.info");
    LogLine(LogLevel::kWarn, "kept.warn");
    LogLine(LogLevel::kError, "kept.error");
  }
  EXPECT_EQ(logger.linesWritten(), 2u);
  const std::vector<std::string> lines = file.lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(report::Json::parse(lines[0]).at("event").asString(),
            "kept.warn");
  EXPECT_EQ(report::Json::parse(lines[1]).at("event").asString(),
            "kept.error");
}

// Field order is part of the contract: fixed head, then caller fields in
// call order. With timestamps off the bytes are fully deterministic.
TEST(LogTest, FieldOrderIsDeterministicWithoutTimestamps) {
  TempLog file("order");
  Logger::Options options;
  options.level = LogLevel::kDebug;
  options.path = file.path();
  options.timestamps = false;
  Logger logger(options);
  {
    const LogScope scope(logger);
    LogLine(LogLevel::kInfo, "demo")
        .str("text", "a \"quoted\" value")
        .num("count", 42)
        .real("ratio", 0.25)
        .boolean("flag", true);
  }
  const std::vector<std::string> lines = file.lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0],
            "{\"level\":\"info\",\"event\":\"demo\","
            "\"text\":\"a \\\"quoted\\\" value\",\"count\":42,"
            "\"ratio\":0.25,\"flag\":true}");
}

TEST(LogTest, TimestampsAreMonotonicNanos) {
  TempLog file("ts");
  Logger::Options options;
  options.level = LogLevel::kInfo;
  options.path = file.path();
  Logger logger(options);
  {
    const LogScope scope(logger);
    LogLine(LogLevel::kInfo, "first");
    LogLine(LogLevel::kInfo, "second");
  }
  const std::vector<std::string> lines = file.lines();
  ASSERT_EQ(lines.size(), 2u);
  const std::uint64_t first =
      report::Json::parse(lines[0]).at("ts").asUint();
  const std::uint64_t second =
      report::Json::parse(lines[1]).at("ts").asUint();
  EXPECT_LE(first, second);
}

// A record emitted inside an open span carries that span's identity, so log
// lines join the Chrome trace of the request that emitted them.
TEST(LogTest, RecordsCarryTraceCorrelationInsideASpan) {
  TempLog file("trace");
  Logger::Options options;
  options.level = LogLevel::kInfo;
  options.path = file.path();
  options.timestamps = false;
  Logger logger(options);
  Session session;
  SpanContext expected;
  {
    const LogScope logScope(logger);
    const Scope scope(session);
    LogLine(LogLevel::kInfo, "outside");
    {
      const Span span("request", "test");
      expected = span.context();
      LogLine(LogLevel::kInfo, "inside");
    }
    LogLine(LogLevel::kInfo, "after");
  }
  const std::vector<std::string> lines = file.lines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].find("trace_id"), std::string::npos);
  EXPECT_EQ(lines[2].find("trace_id"), std::string::npos);
  const report::Json inside = report::Json::parse(lines[1]);
  EXPECT_EQ(inside.at("trace_id").asUint(), expected.traceId);
  EXPECT_EQ(inside.at("span_id").asUint(), expected.spanId);
}

TEST(LogTest, NestedInstallationThrows) {
  Logger::Options options;
  options.level = LogLevel::kInfo;
  options.timestamps = false;
  Logger a(options);
  Logger b(options);
  const LogScope scope(a);
  EXPECT_THROW(LogScope{b}, std::logic_error);
}

TEST(LogTest, UnopenableSinkThrows) {
  Logger::Options options;
  options.path = "/nonexistent-dir-for-test/log.jsonl";
  EXPECT_THROW(Logger{options}, std::invalid_argument);
}

}  // namespace
}  // namespace dmf::obs
