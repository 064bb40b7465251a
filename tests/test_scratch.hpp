// Per-process scratch paths for tests that keep files under
// testing::TempDir(). Every name lives in one directory per process,
// pasim_test.<pid>, so two processes running the same suite at once
// (two checkouts' ctest on one host) never remove_all each other's
// caches and journals. The directory is removed when the process that
// made it exits; forked and death-test children leave it alone.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace pas::test {

inline std::string scratch_path(const std::string& name) {
  struct Dir {
    pid_t owner = ::getpid();
    std::string path =
        ::testing::TempDir() + "/pasim_test." + std::to_string(owner);
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ec;
      if (::getpid() == owner) std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path + "/" + name;
}

}  // namespace pas::test
