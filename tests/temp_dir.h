// Scratch directories for tests that write files.
//
// ctest runs every test as its own process, many at once under -j, so a
// fixed path under testing::TempDir() is shared by every process (and every
// test) that names it; one test's remove_all then deletes another's files
// mid-run. TempDirFor scopes each directory to the process and the running
// test instead.

#ifndef TESTS_TEMP_DIR_H_
#define TESTS_TEMP_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace wdmlat::test {

// A fresh, empty directory <TempDir>/wdmlat-<pid>/<Suite.Test>/<name>.
// The per-process root is removed when the process that created it exits
// (forked children that exit normally leave it alone).
inline std::string TempDirFor(const std::string& name) {
  static const struct Root {
    pid_t owner = ::getpid();
    std::filesystem::path path =
        std::filesystem::path(testing::TempDir()) / ("wdmlat-" + std::to_string(owner));
    ~Root() {
      if (::getpid() == owner) {
        std::error_code ignored;
        std::filesystem::remove_all(path, ignored);
      }
    }
  } root;
  std::string test = "no_test";
  if (const testing::TestInfo* info = testing::UnitTest::GetInstance()->current_test_info()) {
    test = std::string(info->test_suite_name()) + "." + info->name();
    std::replace(test.begin(), test.end(), '/', '_');  // parameterized names
  }
  const std::filesystem::path dir = root.path / test / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace wdmlat::test

#endif  // TESTS_TEMP_DIR_H_
