#include "pas/util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace pas::util {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  // A repeated option accumulates comma-joined, so list-valued flags
  // (--nodes 1 --nodes 2) compose with get_int_list(); for scalar
  // getters the joined value simply fails to parse past the first
  // element, which repeated scalar flags never relied on.
  const auto put = [this](const std::string& name, const std::string& value) {
    auto [it, inserted] = options_.try_emplace(name, value);
    if (!inserted && !value.empty()) {
      if (!it->second.empty()) it->second += ',';
      it->second += value;
    }
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      put(arg.substr(0, eq), arg.substr(eq + 1));
      continue;
    }
    // "--name value" when the next token is not itself an option;
    // otherwise a boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      put(arg, argv[++i]);
    } else {
      put(arg, "");
    }
  }
}

void Cli::require_known(std::initializer_list<const char*> known) const {
  require_known(std::vector<std::string>(known.begin(), known.end()));
}

void Cli::require_known(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : options_) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    std::string msg = "unknown option --" + name + "; accepted:";
    for (const std::string& k : known) msg += " --" + k;
    throw std::invalid_argument(msg);
  }
}

void Cli::check_usage(std::initializer_list<const char*> known) const {
  check_usage(std::vector<std::string>(known.begin(), known.end()));
}

void Cli::check_usage(const std::vector<std::string>& known) const {
  try {
    require_known(known);
  } catch (const std::invalid_argument& e) {
    usage_error(e.what());
  }
}

void Cli::usage_error(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
  std::exit(2);
}

bool Cli::has(const std::string& name) const { return options_.count(name) != 0; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

long Cli::get_int(const std::string& name, long fallback) const {
  auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return fallback;
  return std::strtol(it->second.c_str(), nullptr, 10);
}

double Cli::get_double(const std::string& name, double fallback) const {
  auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  if (it->second.empty() || it->second == "true" || it->second == "1" ||
      it->second == "yes" || it->second == "on")
    return true;
  return false;
}

std::vector<long> Cli::get_int_list(const std::string& name,
                                    std::vector<long> fallback) const {
  auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return fallback;
  std::vector<long> out;
  const std::string& s = it->second;
  for (std::size_t pos = 0;;) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string item = s.substr(pos, comma - pos);
    const auto bad = [&](const std::string& why) {
      throw std::invalid_argument("--" + name + ": item " +
                                  std::to_string(out.size() + 1) + " of \"" +
                                  s + "\" " + why);
    };
    if (item.empty()) bad("is empty");
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(item.c_str(), &end, 10);
    if (*end != '\0') bad("is not an integer: \"" + item + "\"");
    if (errno == ERANGE) bad("is out of range");
    out.push_back(value);
    if (comma == s.size()) return out;
    pos = comma + 1;
  }
}

}  // namespace pas::util
