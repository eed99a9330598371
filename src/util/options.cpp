#include "util/options.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace lps {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

std::map<std::string, std::string> parse_kv_list(const std::string& spec) {
  std::map<std::string, std::string> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = trim(spec.substr(pos, comma - pos));
    pos = comma + 1;
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    std::string key = eq == std::string::npos ? entry : entry.substr(0, eq);
    std::string value =
        eq == std::string::npos ? std::string("true") : entry.substr(eq + 1);
    key = trim(key);
    if (key.empty()) {
      throw std::invalid_argument("parse_kv_list: empty key in '" + spec + "'");
    }
    if (!out.emplace(key, trim(value)).second) {
      throw std::invalid_argument("parse_kv_list: duplicate key '" + key +
                                  "' in '" + spec + "'");
    }
  }
  return out;
}

std::int64_t parse_int_value(const std::string& key, const std::string& v) {
  try {
    std::size_t used = 0;
    const std::int64_t out = std::stoll(v, &used);
    if (used != v.size()) throw std::invalid_argument("trailing characters");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("bad integer for '" + key + "': '" + v + "'");
  }
}

double parse_double_value(const std::string& key, const std::string& v) {
  try {
    std::size_t used = 0;
    const double out = std::stod(v, &used);
    if (used != v.size()) throw std::invalid_argument("trailing characters");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("bad number for '" + key + "': '" + v + "'");
  }
}

bool parse_bool_value(const std::string& key, const std::string& v) {
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("bad boolean for '" + key + "': '" + v + "'");
}

std::int64_t SpecArgs::require_int(const std::string& key) {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::invalid_argument(prefix() + ": missing required key '" + key +
                                "'");
  }
  used_.push_back(key);
  return parse_int_value(key, it->second);
}

std::int64_t SpecArgs::get_int(const std::string& key, std::int64_t fallback) {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  used_.push_back(key);
  return parse_int_value(key, it->second);
}

double SpecArgs::get_double(const std::string& key, double fallback) {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  used_.push_back(key);
  return parse_double_value(key, it->second);
}

std::string SpecArgs::get(const std::string& key, const std::string& fallback) {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  used_.push_back(key);
  return it->second;
}

void SpecArgs::check_all_used() const {
  for (const auto& [key, _] : values_) {
    if (std::find(used_.begin(), used_.end(), key) == used_.end()) {
      throw std::invalid_argument(prefix() + ": unknown key '" + key + "'");
    }
  }
}

Options::Options(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "";
  program_.erase(0, program_.find_last_of('/') + 1);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

const std::string* Options::lookup(const std::string& key) const {
  used_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

std::string Options::get(const std::string& key,
                         const std::string& fallback) const {
  const std::string* v = lookup(key);
  return v == nullptr ? fallback : *v;
}

template <typename T, typename Parse>
T Options::parse_or(const std::string& key, T fallback, Parse parse) const {
  const std::string* v = lookup(key);
  if (v == nullptr) return fallback;
  try {
    return parse("--" + key, *v);
  } catch (const std::invalid_argument& e) {
    if (first_error_.empty()) first_error_ = e.what();
    return fallback;
  }
}

std::int64_t Options::get_int(const std::string& key,
                              std::int64_t fallback) const {
  return parse_or(key, fallback, parse_int_value);
}

std::uint64_t Options::get_count(const std::string& key,
                                 std::uint64_t fallback,
                                 std::uint64_t max) const {
  return parse_or(key, fallback,
                  [max](const std::string& flag, const std::string& v) {
                    const std::int64_t n = parse_int_value(flag, v);
                    const std::string bad =
                        "bad count for '" + flag + "': '" + v + "' ";
                    if (n < 0) throw std::invalid_argument(bad + "(negative)");
                    if (static_cast<std::uint64_t>(n) > max) {
                      throw std::invalid_argument(
                          bad + "(at most " + std::to_string(max) + ")");
                    }
                    return static_cast<std::uint64_t>(n);
                  });
}

double Options::get_double(const std::string& key, double fallback) const {
  return parse_or(key, fallback, parse_double_value);
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  return parse_or(key, fallback, parse_bool_value);
}

void Options::check_flags() const {
  if (!first_error_.empty()) throw std::invalid_argument(first_error_);
  for (const auto& [key, _] : values_) {
    if (used_.count(key) == 0) {
      throw std::invalid_argument("unknown flag '--" + key + "'");
    }
  }
}

void Options::exit_on_bad_flags() const {
  try {
    check_flags();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), e.what());
    std::exit(2);
  }
}

int run_main(int argc, char** argv, int (*body)(const Options& opts)) {
  const Options opts(argc, argv);
  try {
    return body(opts);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", opts.program().c_str(), e.what());
    return 2;
  }
}

}  // namespace lps
