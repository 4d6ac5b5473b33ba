#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <system_error>

/// A fresh directory under the system temp dir, removed on destruction.
///
/// gtest_discover_tests runs every case as its own process and `ctest -j`
/// runs those processes side by side, so a directory with a fixed name lets
/// one case's cleanup delete a sibling's files. The name here is unique per
/// suite, test name (a parameterized case's index included), caller tag
/// and pid.

namespace chisimnet::testutil {

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag = "scratch")
      : dir_(std::filesystem::temp_directory_path() / uniqueName(tag)) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& path() const { return dir_; }

 private:
  static std::string uniqueName(const std::string& tag) {
    std::string name = "chisimnet";
    if (const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      name += std::string("_") + info->test_suite_name() + "_" + info->name();
    }
    name += "_" + tag + "_" + std::to_string(::getpid());
    for (char& c : name) {
      if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-') {
        c = '_';
      }
    }
    return name;
  }

  std::filesystem::path dir_;
};

}  // namespace chisimnet::testutil
