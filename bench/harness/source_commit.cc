#include "bench/harness/source_commit.h"

#include <cstdio>
#include <filesystem>

namespace lsmssd::bench {

std::string SourceCommit() {
  const std::filesystem::path src(LSMSSD_SOURCE_DIR);
  const std::string cmd =
      "cd '" + src.string() + "' && GIT_CEILING_DIRECTORIES='" +
      src.parent_path().string() +
      "' git rev-parse HEAD 2>/dev/null && "
      "{ git diff --quiet HEAD 2>/dev/null || echo dirty; }";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  std::string hash;
  std::string dirty;
  char line[128];
  if (std::fgets(line, sizeof(line), pipe) != nullptr) hash = line;
  if (std::fgets(line, sizeof(line), pipe) != nullptr) dirty = line;
  pclose(pipe);
  while (!hash.empty() && (hash.back() == '\n' || hash.back() == ' ')) {
    hash.pop_back();
  }
  if (hash.size() != 40) return "unknown";
  return dirty.empty() ? hash : hash + "-dirty";
}

}  // namespace lsmssd::bench
