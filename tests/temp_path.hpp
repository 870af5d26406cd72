#pragma once
// A file or directory path under testing::TempDir() that lives for one
// scope: whatever sits at the path is removed when the TempPath is made and
// again when it is destroyed, so a test run leaves nothing in the temp dir.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace ndg {

class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_(testing::TempDir() + "/" + name) {
    std::filesystem::remove_all(path_);
  }
  ~TempPath() {
    std::error_code ec;  // a destructor must not throw
    std::filesystem::remove_all(path_, ec);
  }
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;

  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

}  // namespace ndg
