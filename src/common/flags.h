// A tiny command-line flag parser for the bench/example binaries. Supports
// `--name=value`, `--name value`, and boolean `--name` / `--no-name`.
// Not a general-purpose flags library; just enough for the harnesses.
#ifndef SKYCUBE_COMMON_FLAGS_H_
#define SKYCUBE_COMMON_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace skycube {

/// Parses argv into name/value pairs and typed accessors with defaults.
class FlagParser {
 public:
  /// Parses flags; unknown positional arguments are collected and available
  /// via positional(). Dies on malformed flags (missing value).
  FlagParser(int argc, char** argv);

  /// True if --name was present in any form.
  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// The first of `names` given a negative integer, or "" if none is. A
  /// tool checks its count and size flags with this before it casts them
  /// to size_t, where -1 would wrap to 2^64 − 1.
  std::string FirstNegative(std::initializer_list<const char*> names) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program_name() const { return program_name_; }

 private:
  std::string program_name_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace skycube

#endif  // SKYCUBE_COMMON_FLAGS_H_
