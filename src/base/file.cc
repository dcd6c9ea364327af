#include "src/base/file.h"

namespace emeralds {

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  return CloseWrittenFile(f);
}

bool CloseWrittenFile(std::FILE* f) {
  const bool write_failed = std::ferror(f) != 0;
  return std::fclose(f) == 0 && !write_failed;
}

}  // namespace emeralds
