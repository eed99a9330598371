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

/// Flags of a bench, example or tool binary. A getter records its flag
/// as read. A malformed value does not throw at the getter: it returns
/// `fallback`, and check_flags() reports the first such value. A binary
/// reads all its flags, then calls check_flags() or exit_on_bad_flags()
/// once, before any work.
class Options {
 public:
  Options(int argc, char** argv);

  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// An integer in [0, max]; a negative or larger value is malformed.
  /// The default max, 2^31 - 1, keeps every count castable to int.
  std::uint64_t get_count(const std::string& key, std::uint64_t fallback,
                          std::uint64_t max = INT32_MAX) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Positional (non --key) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Throws std::invalid_argument naming the first malformed value, or
  /// else the first flag no get*() call read ("unknown flag '--key'"),
  /// so typos and retired flags fail loudly instead of being ignored.
  void check_flags() const;

  /// check_flags() for a binary's main: prints `<program>: <what>` and
  /// exits 2.
  void exit_on_bad_flags() const;

  /// The binary's name: argv[0] without its directory.
  const std::string& program() const { return program_; }

 private:
  /// The value given for `key` (nullptr when absent); records the key
  /// as read either way.
  const std::string* lookup(const std::string& key) const;
  /// Runs `parse` on the value of `key`; on std::invalid_argument keeps
  /// the first message for check_flags() and returns `fallback`.
  template <typename T, typename Parse>
  T parse_or(const std::string& key, T fallback, Parse parse) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> used_;
  mutable std::string first_error_;
};

/// The main of a bench or example binary: builds its Options and runs
/// `body`. A spec error that `body` finds after its flags parsed (an
/// unknown solver, an out-of-range config or generator value: any
/// std::invalid_argument) prints one `<program>: <what>` line and exits
/// 2, as a bad flag does. Any other exception still escapes: a
/// std::logic_error is a broken invariant, not a bad input.
int run_main(int argc, char** argv, int (*body)(const Options& opts));

}  // namespace lps
