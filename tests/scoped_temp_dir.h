// Test-only temporary directory, unique per process and per test, created on
// construction and removed with its contents on destruction.
//
// gtest_discover_tests runs every test case as its own process, and ctest -j
// runs those processes side by side. A fixed path shared by sibling cases
// ("/tmp/rc_disk_cache_test") gets removed by one case while another is still
// writing to it, so tests take their scratch space from here instead
// (tools/check_all.sh rejects fixed temp paths under tests/).
#ifndef RC_TESTS_SCOPED_TEMP_DIR_H_
#define RC_TESTS_SCOPED_TEMP_DIR_H_

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

#include <gtest/gtest.h>

namespace rc::testing {

class ScopedTempDir {
 public:
  explicit ScopedTempDir(std::string_view prefix = "rc_test") {
    static std::atomic<uint64_t> next{0};
    std::string name(prefix);
    if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info()) {
      name += "_";
      name += info->test_suite_name();
      name += "_";
      name += info->name();
    }
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
    name += "_" + std::to_string(::getpid()) + "_" + std::to_string(next.fetch_add(1));
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  // A path inside the directory (not created).
  std::string File(std::string_view name) const { return (path_ / name).string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace rc::testing

#endif  // RC_TESTS_SCOPED_TEMP_DIR_H_
