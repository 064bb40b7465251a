// Tiny command-line option parser for the example and bench binaries.
// Supports "--name value", "--name=value" and boolean "--flag".
#pragma once

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace pas::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// Throws std::invalid_argument naming the first option that is not
  /// in `known` (a typo'd --flag must not be silently ignored). The
  /// message lists the accepted options.
  void require_known(std::initializer_list<const char*> known) const;
  void require_known(const std::vector<std::string>& known) const;

  /// require_known for main(): on an unknown option prints the error
  /// and the accepted options to stderr and exits with status 2. The
  /// vector overload composes with SweepSpec::cli_option_names().
  void check_usage(std::initializer_list<const char*> known) const;
  void check_usage(const std::vector<std::string>& known) const;

  /// Prints "<program>: <message>" to stderr and exits with status 2:
  /// how a binary reports a bad option or option value.
  [[noreturn]] void usage_error(const std::string& message) const;

  /// True if --name was present (with or without a value).
  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  long get_int(const std::string& name, long fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated list of integers, e.g. --nodes 1,2,4,8,16. Throws
  /// std::invalid_argument naming the option and the item's position
  /// when an item is empty ("1,,4", "4,"), not an integer ("600,x",
  /// "1.5") or out of range.
  std::vector<long> get_int_list(const std::string& name,
                                 std::vector<long> fallback) const;

  /// Positional arguments (everything not consumed as an option).
  const std::vector<std::string>& positional() const { return positional_; }

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace pas::util
