#include "common/flags.h"

#include <cerrno>
#include <cstdlib>
#include <initializer_list>
#include <string>

#include "common/macros.h"

namespace skycube {

FlagParser::FlagParser(int argc, char** argv) {
  program_name_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    if (arg.rfind("no-", 0) == 0) {
      values_[arg.substr(3)] = "false";
      continue;
    }
    // `--name value` when the next token is not itself a flag and looks like
    // a value for a non-boolean flag; otherwise treat as boolean true.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[i + 1];
      ++i;
    } else {
      values_[arg] = "true";
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  errno = 0;
  const int64_t value = std::strtoll(it->second.c_str(), &end, 10);
  SKYCUBE_CHECK_MSG(
      end != it->second.c_str() && *end == '\0' && errno != ERANGE,
      ("flag --" + name + " expects an integer").c_str());
  return value;
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(it->second.c_str(), &end);
  // ERANGE: the value overflows to ±inf or underflows towards 0.
  SKYCUBE_CHECK_MSG(
      end != it->second.c_str() && *end == '\0' && errno != ERANGE,
      ("flag --" + name + " expects a number").c_str());
  return value;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  SKYCUBE_CHECK_MSG(false, ("flag --" + name + " expects a boolean").c_str());
  return default_value;
}

std::string FlagParser::FirstNegative(
    std::initializer_list<const char*> names) const {
  for (const char* name : names) {
    if (GetInt(name, 0) < 0) return name;
  }
  return "";
}

}  // namespace skycube
