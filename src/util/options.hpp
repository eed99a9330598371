// Tiny command-line option parser for the bench and example binaries,
// plus the shared key/value parsing that api::SolverConfig builds on.
// Supports `--key=value`, `--key value`, and boolean `--flag` forms.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace lps {

/// Parse a comma-separated `k1=v1,k2=v2` list into a map; a bare entry
/// without `=` becomes `key -> "true"` (flag form). Whitespace around
/// entries is trimmed. Throws std::invalid_argument on empty keys or
/// duplicate keys.
std::map<std::string, std::string> parse_kv_list(const std::string& spec);

/// Scalar parsers shared by Options and api::SolverConfig; `key` only
/// names the offender in the error message.
std::int64_t parse_int_value(const std::string& key, const std::string& v);
double parse_double_value(const std::string& key, const std::string& v);
bool parse_bool_value(const std::string& key, const std::string& v);

/// kv accessor with required/optional semantics for `family:k=v,...`
/// spec strings (generator specs, update-stream specs). Tracks which
/// keys were consumed so check_all_used() can make typos fail loudly;
/// `context` names the spec kind in error messages ("generator",
/// "update stream", ...).
class SpecArgs {
 public:
  SpecArgs(std::string context, std::string family, const std::string& kv)
      : context_(std::move(context)),
        family_(std::move(family)),
        values_(parse_kv_list(kv)) {}

  std::int64_t require_int(const std::string& key);
  std::int64_t get_int(const std::string& key, std::int64_t fallback);
  double get_double(const std::string& key, double fallback);
  std::string get(const std::string& key, const std::string& fallback);
  bool has(const std::string& key) const { return values_.count(key) != 0; }

  /// Every provided key must have been consumed — typos fail loudly.
  void check_all_used() const;

 private:
  std::string prefix() const { return context_ + " '" + family_ + "'"; }

  std::string context_;
  std::string family_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> used_;
};

class Options {
 public:
  Options(int argc, char** argv);

  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Positional (non --key) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Every --key given must have been read by a get*() call; throws
  /// std::invalid_argument("unknown flag '--key'") otherwise, so typos
  /// and retired flags fail loudly instead of being ignored.
  void check_all_used() const;

  /// check_all_used() for a binary's main, once it has read all its
  /// flags: prints `<program>: unknown flag '--key'` and exits 2.
  void exit_on_unread_flags() const;

 private:
  /// The value given for `key` (nullptr when absent); records the key
  /// as read either way.
  const std::string* lookup(const std::string& key) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> used_;
};

}  // namespace lps
