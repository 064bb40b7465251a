#include "pas/util/table.hpp"
#include "test_scratch.hpp"

#include <gtest/gtest.h>

namespace pas::util {
namespace {

TEST(TextTable, EmptyTableRenders) {
  TextTable t("empty");
  const std::string s = t.to_string();
  EXPECT_NE(s.find("empty"), std::string::npos);
}

TEST(TextTable, HeaderAndRows) {
  TextTable t;
  t.set_header({"N", "time"});
  t.add_row({"1", "2.50"});
  t.add_row({"2", "1.30"});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| N"), std::string::npos);
  EXPECT_NE(s.find("2.50"), std::string::npos);
}

TEST(TextTable, RaggedRowsPadded) {
  TextTable t;
  t.set_header({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.num_cols(), 3u);
  EXPECT_NO_THROW(t.to_string());
}

TEST(TextTable, VariadicAdd) {
  TextTable t;
  t.add("x", "y", "z");
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0].size(), 3u);
}

TEST(TextTable, CsvBasic) {
  TextTable t;
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(TextTable, CsvEscaping) {
  TextTable t;
  t.add_row({"has,comma", "has\"quote", "plain"});
  EXPECT_EQ(t.to_csv(), "\"has,comma\",\"has\"\"quote\",plain\n");
}

TEST(TextTable, WriteCsvRoundTrip) {
  TextTable t("title ignored in csv");
  t.set_header({"k", "v"});
  t.add_row({"x", "1"});
  const std::string path = pas::test::scratch_path("pas_table_test.csv");
  const obs::WriteResult r = t.write_csv(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.path, path);
  EXPECT_EQ(r.bytes, t.to_csv().size());
  EXPECT_TRUE(r.error.empty());
  FILE* f = fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  ASSERT_NE(fgets(buf, sizeof buf, f), nullptr);
  EXPECT_STREQ(buf, "k,v\n");
  fclose(f);
}

TEST(TextTable, WriteCsvFailsOnBadPath) {
  TextTable t;
  const obs::WriteResult r = t.write_csv("/nonexistent-dir/zz/x.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.path, "/nonexistent-dir/zz/x.csv");
  EXPECT_FALSE(r.error.empty());  // errno text, not a silent bool
  EXPECT_EQ(r.bytes, 0u);
}

}  // namespace
}  // namespace pas::util
