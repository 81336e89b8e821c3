// cli.hpp — a minimal flag parser for the bench/example binaries.
//
// Every table-reproduction binary accepts the same conventions:
//   --flag=value   or   --flag value   or bare   --flag   (boolean)
// Unknown flags are an error (catches typos in experiment sweeps — call
// unused() at the end of main), and so are duplicate flags (catches
// copy-paste slips like `--n=256 --n=4096`, where silently keeping one
// value would corrupt a sweep).
//
// Empty-value semantics: a bare `--flag` is a boolean — has() is true
// and every value getter returns its fallback. `--flag=` is an
// *explicit empty value*: get_string returns "" (not the fallback), and
// the numeric getters throw, because an empty string is not a number.
//
// Narrow integer flags go through get_int<T>, which throws when the value
// does not fit in T instead of wrapping it into a different one.
//
// A rejected flag is a usage error: cli_main runs a binary's body on its
// parsed flags and turns the std::invalid_argument into exit status 2.
#pragma once

#include <concepts>
#include <functional>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace geochoice::sim {

class ArgParser {
 public:
  /// Throws std::invalid_argument on positional arguments and on a flag
  /// given more than once (in any mix of forms).
  ArgParser(int argc, const char* const* argv);

  /// True if the flag was given (with or without a value).
  [[nodiscard]] bool has(std::string_view flag) const;

  [[nodiscard]] std::uint64_t get_u64(std::string_view flag,
                                      std::uint64_t fallback) const;
  /// A non-negative integer flag read into T: throws std::invalid_argument
  /// when the value exceeds T's maximum (or is not a non-negative integer).
  template <std::integral T>
  [[nodiscard]] T get_int(std::string_view flag, T fallback) const {
    const auto v = u64_of(flag);
    if (!v) return fallback;
    constexpr auto kMax =
        static_cast<std::uint64_t>(std::numeric_limits<T>::max());
    if (*v > kMax) throw_out_of_range(flag, *v, kMax);
    return static_cast<T>(*v);
  }
  [[nodiscard]] double get_double(std::string_view flag,
                                  double fallback) const;
  [[nodiscard]] std::string get_string(std::string_view flag,
                                       std::string fallback) const;

  /// Comma-separated list of u64s, e.g. --n=256,4096,65536.
  [[nodiscard]] std::vector<std::uint64_t> get_u64_list(
      std::string_view flag, std::vector<std::uint64_t> fallback) const;

  /// Flags that were parsed but never queried — call at the end of main to
  /// reject typos. Returns the list of unused flag names.
  [[nodiscard]] std::vector<std::string> unused() const;

  [[nodiscard]] const std::string& program() const noexcept {
    return program_;
  }

 private:
  struct Entry {
    std::string value;
    bool has_value = false;  // false for a bare boolean `--flag`
  };

  [[nodiscard]] const Entry* raw(std::string_view flag) const;
  /// The flag's value, or nullopt for absent flags AND bare booleans.
  /// Throws for `--flag=` when `reject_empty` (numeric getters).
  [[nodiscard]] std::optional<std::string> value_of(std::string_view flag,
                                                    bool reject_empty) const;
  /// The flag's value as a u64, or nullopt for absent flags and bare
  /// booleans. Throws when the value is not a non-negative integer.
  [[nodiscard]] std::optional<std::uint64_t> u64_of(
      std::string_view flag) const;
  [[noreturn]] static void throw_out_of_range(std::string_view flag,
                                              std::uint64_t value,
                                              std::uint64_t max);

  std::string program_;
  std::map<std::string, Entry, std::less<>> values_;
  mutable std::map<std::string, bool, std::less<>> used_;
};

/// Parses argv and returns body(args). A std::invalid_argument from the
/// parser, a getter or the body (sim::run throws one for a Scenario that
/// fails validate()) is printed as "<program>: <message>" on stderr and
/// returns 2, the usage-error exit of every binary.
int cli_main(int argc, const char* const* argv,
             const std::function<int(const ArgParser&)>& body);

}  // namespace geochoice::sim
