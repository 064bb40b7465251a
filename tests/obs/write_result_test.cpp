#include "pas/obs/write_result.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "test_scratch.hpp"

namespace pas::obs {
namespace {

TEST(WriteResult, SuccessReportsPathAndExactByteCount) {
  const std::string path = pas::test::scratch_path("write_result_ok.txt");
  const std::string content = "power-aware speedup\n";
  const WriteResult r = write_text_file(path, content);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(r.path, path);
  EXPECT_EQ(r.bytes, content.size());
  EXPECT_TRUE(r.error.empty());

  std::ifstream in(path, std::ios::binary);
  std::stringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), content);
  std::filesystem::remove(path);
}

TEST(WriteResult, FailureCarriesPathAndNonEmptyError) {
  const std::string path =
      pas::test::scratch_path("no_such_dir_for_write_result/out.txt");
  const WriteResult r = write_text_file(path, "x");
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(static_cast<bool>(r));
  EXPECT_EQ(r.path, path);
  EXPECT_FALSE(r.error.empty());
  // to_string is what benches print on failure; it must name the file.
  EXPECT_NE(r.to_string().find(path), std::string::npos);
}

}  // namespace
}  // namespace pas::obs
