#pragma once
// A private scratch directory per test process. ctest runs every
// discovered test in its own process, in parallel, so two processes that
// build the same fixed path under the shared temp directory race on one
// file; paths under temp_dir() cannot collide across processes.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace gapsched::testing {

/// This process's scratch directory, with a trailing '/'. Created with
/// mkdtemp on first use and removed with everything in it at exit.
inline const std::string& temp_dir() {
  struct Dir {
    std::string path;
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir = [] {
    std::string pattern = ::testing::TempDir() + "gapsched_XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed for " << pattern;
    }
    return Dir{pattern + "/"};
  }();
  return dir.path;
}

}  // namespace gapsched::testing
