#include "src/util/flags.h"

#include <cerrno>
#include <cstdlib>

namespace lsmssd {

StatusOr<FlagMap> ParseFlagArgs(int argc, char** argv, int first) {
  FlagMap flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg.size() <= 2) {
      return Status::InvalidArgument("unexpected argument: " + arg);
    }
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg.substr(2)] = std::string("1");
    } else if (eq <= 2) {
      return Status::InvalidArgument("flag has no name: " + arg);
    } else {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

std::string FlagOr(const FlagMap& flags, const std::string& name,
                   const std::string& fallback) {
  auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

StatusOr<uint64_t> FlagUint(const FlagMap& flags, const std::string& name,
                            uint64_t fallback) {
  auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  const std::string& text = it->second;
  if (text.empty() || text[0] == '-' || text[0] == '+') {
    return Status::InvalidArgument("--" + name + " expects an unsigned " +
                                   "integer, got '" + text + "'");
  }
  errno = 0;
  char* end = nullptr;
  const uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) {
    return Status::InvalidArgument("--" + name + " expects an unsigned " +
                                   "integer, got '" + text + "'");
  }
  return value;
}

StatusOr<double> FlagDouble(const FlagMap& flags, const std::string& name,
                            double fallback) {
  auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  const std::string& text = it->second;
  if (text.empty()) {
    return Status::InvalidArgument("--" + name + " expects a number");
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno == ERANGE || end != text.c_str() + text.size()) {
    return Status::InvalidArgument("--" + name + " expects a number, got '" +
                                   text + "'");
  }
  return value;
}

StatusOr<bool> FlagBool(const FlagMap& flags, const std::string& name,
                        bool fallback) {
  auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  const std::string& text = it->second;
  if (text == "1" || text == "true") return true;
  if (text == "0" || text == "false") return false;
  return Status::InvalidArgument("--" + name + " expects 0|1|true|false, " +
                                 "got '" + text + "'");
}

Status CheckKnownFlags(const FlagMap& flags,
                       const std::vector<std::string_view>& known) {
  for (const auto& [name, value] : flags) {
    bool found = false;
    for (std::string_view k : known) {
      if (name == k) {
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("unknown flag: --" + name);
    }
  }
  return Status::OK();
}

}  // namespace lsmssd
