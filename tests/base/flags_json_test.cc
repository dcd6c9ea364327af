// The strict flag parser and the JSON file reader and typed accessors the
// command-line tools share.

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "src/base/file.h"
#include "src/base/flags.h"
#include "src/base/json.h"

namespace emeralds {
namespace {

TEST(FlagsTest, FlagValueMatchesOnlyNameEqualsValue) {
  const char* v = nullptr;
  EXPECT_TRUE(FlagValue("--node=3", "--node", &v));
  EXPECT_STREQ(v, "3");
  EXPECT_TRUE(FlagValue("--node=", "--node", &v));
  EXPECT_STREQ(v, "");
  EXPECT_FALSE(FlagValue("--node", "--node", &v));
  EXPECT_FALSE(FlagValue("--nodes=3", "--node", &v));
  EXPECT_FALSE(FlagValue("--postmortem-json=x", "--postmortem", &v));
}

TEST(FlagsTest, ParseIntTakesOnlyAWholeInRangeInteger) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt("42", 0, 100, &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt("-1", -1, 100, &v));
  EXPECT_EQ(v, -1);
  for (const char* bad : {"", "abc", "3x", "1,2", "1.5", "101", "-2", " 4", "+4",
                          "99999999999999999999"}) {
    EXPECT_FALSE(ParseInt(bad, -1, 100, &v)) << bad;
  }
  EXPECT_FALSE(ParseInt(nullptr, 0, 1, &v));
}

TEST(FlagsTest, ParseDoubleTakesOnlyAWholeFiniteInRangeNumber) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("0.03", 0, 1, &v));
  EXPECT_DOUBLE_EQ(v, 0.03);
  EXPECT_TRUE(ParseDouble("1e-3", 0, 1, &v));
  EXPECT_DOUBLE_EQ(v, 0.001);
  for (const char* bad : {"", "abc", "0.5x", "-0.1", "2", "inf", "nan", " 0.5", "+0.5"}) {
    EXPECT_FALSE(ParseDouble(bad, 0, 1, &v)) << bad;
  }
}

TEST(FlagsTest, ContextIntKeepsTheTargetUntouchedOnABadValue) {
  const FlagContext flags{"tool", "usage: tool\n"};
  int jobs = 7;
  EXPECT_FALSE(flags.Int("--jobs", "0", 1, 256, &jobs));
  EXPECT_EQ(jobs, 7);
  EXPECT_TRUE(flags.Int("--jobs", "4", 1, 256, &jobs));
  EXPECT_EQ(jobs, 4);
  uint64_t seed = 0;
  EXPECT_TRUE(flags.Int<uint64_t>("--seed", "9223372036854775807", 0, INT64_MAX, &seed));
  EXPECT_EQ(seed, 9223372036854775807ULL);
}

TEST(JsonTest, TypedAccessorsFallBackOnAbsentOrMistypedMembers) {
  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonParse(R"({"n": 12.9, "b": true, "s": "x", "o": {}})", &root, &error))
      << error;
  EXPECT_EQ(root.IntOr("n", -1), 12);
  EXPECT_DOUBLE_EQ(root.NumberOr("n", -1), 12.9);
  EXPECT_TRUE(root.BoolOr("b", false));
  EXPECT_STREQ(root.StringOr("s", "?"), "x");
  EXPECT_NE(root.Find("o", JsonValue::Type::kObject), nullptr);
  // Absent, and present with another type, both take the fallback.
  EXPECT_EQ(root.IntOr("missing", -1), -1);
  EXPECT_EQ(root.IntOr("s", -1), -1);
  EXPECT_DOUBLE_EQ(root.NumberOr("b", 2.5), 2.5);
  EXPECT_FALSE(root.BoolOr("n", false));
  EXPECT_STREQ(root.StringOr("n", "?"), "?");
  EXPECT_EQ(root.Find("o", JsonValue::Type::kArray), nullptr);
  // A non-object has no members.
  EXPECT_EQ(root.Find("o")->IntOr("n", 3), 3);
}

TEST(JsonTest, ParseFileReadsWholeFilesAndNamesThePathOnFailure) {
  std::string path = testing::TempDir() + "flags_json_test.json";
  std::string big(100000, ' ');  // longer than one read buffer
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "{%s\"k\": 5}", big.c_str());
  std::fclose(f);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonParseFile(path, &root, &error)) << error;
  EXPECT_EQ(root.IntOr("k", 0), 5);

  f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "{\"k\": }");
  std::fclose(f);
  EXPECT_FALSE(JsonParseFile(path, &root, &error));
  EXPECT_EQ(error.rfind(path + " does not parse: ", 0), 0u) << error;
  std::remove(path.c_str());

  EXPECT_FALSE(JsonParseFile(path, &root, &error));
  EXPECT_EQ(error, "cannot open " + path);
}

TEST(FileTest, WriteTextFileReportsEveryFailedWrite) {
  std::string path = testing::TempDir() + "file_test.txt";
  ASSERT_TRUE(WriteTextFile(path, "{\"k\": 1}\n"));
  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonParseFile(path, &root, &error)) << error;
  EXPECT_EQ(root.IntOr("k", 0), 1);
  std::remove(path.c_str());
  EXPECT_FALSE(WriteTextFile(testing::TempDir() + "no-such-dir/file_test.txt", "x"));

  if (std::FILE* probe = std::fopen("/dev/full", "w")) {
    std::fclose(probe);
  } else {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  // Every write to /dev/full fails with ENOSPC, but stdio buffers it: only
  // the flush at close reports it.
  EXPECT_FALSE(WriteTextFile("/dev/full", "x"));
  std::FILE* f = std::fopen("/dev/full", "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "streamed\n");
  EXPECT_FALSE(CloseWrittenFile(f));
}

}  // namespace
}  // namespace emeralds
