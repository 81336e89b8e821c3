#include "sim/cli.hpp"

#include <charconv>
#include <stdexcept>
#include <string>

namespace geochoice::sim {

ArgParser::ArgParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      throw std::invalid_argument("unexpected positional argument: " +
                                  std::string(arg));
    }
    arg.remove_prefix(2);
    std::string name;
    Entry entry;
    const std::size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      // "--flag=value"; "--flag=" is an explicit empty value.
      name = std::string(arg.substr(0, eq));
      entry.value = std::string(arg.substr(eq + 1));
      entry.has_value = true;
    } else if (i + 1 < argc &&
               !std::string_view(argv[i + 1]).starts_with("--")) {
      // "--flag value" when the next token is not itself a flag.
      name = std::string(arg);
      entry.value = argv[++i];
      entry.has_value = true;
    } else {
      name = std::string(arg);  // bare boolean flag
    }
    if (!values_.emplace(name, std::move(entry)).second) {
      throw std::invalid_argument("duplicate flag: --" + name);
    }
  }
  for (const auto& [k, v] : values_) used_[k] = false;
}

const ArgParser::Entry* ArgParser::raw(std::string_view flag) const {
  std::string_view name = flag;
  if (name.starts_with("--")) name.remove_prefix(2);
  const auto it = values_.find(name);
  if (it == values_.end()) return nullptr;
  used_[it->first] = true;
  return &it->second;
}

std::optional<std::string> ArgParser::value_of(std::string_view flag,
                                               bool reject_empty) const {
  const Entry* e = raw(flag);
  if (!e || !e->has_value) return std::nullopt;  // absent or bare boolean
  if (e->value.empty() && reject_empty) {
    throw std::invalid_argument("flag " + std::string(flag) +
                                ": empty value");
  }
  return e->value;
}

bool ArgParser::has(std::string_view flag) const {
  return raw(flag) != nullptr;
}

std::optional<std::uint64_t> ArgParser::u64_of(std::string_view flag) const {
  const auto v = value_of(flag, /*reject_empty=*/true);
  if (!v) return std::nullopt;
  std::uint64_t out = 0;
  const auto [ptr, ec] = std::from_chars(v->data(), v->data() + v->size(),
                                         out);
  if (ec != std::errc() || ptr != v->data() + v->size()) {
    throw std::invalid_argument("flag " + std::string(flag) +
                                ": not an integer: " + *v);
  }
  return out;
}

void ArgParser::throw_out_of_range(std::string_view flag, std::uint64_t value,
                                   std::uint64_t max) {
  throw std::invalid_argument("flag " + std::string(flag) + ": " +
                              std::to_string(value) + " is out of range (max " +
                              std::to_string(max) + ")");
}

std::uint64_t ArgParser::get_u64(std::string_view flag,
                                 std::uint64_t fallback) const {
  return u64_of(flag).value_or(fallback);
}

double ArgParser::get_double(std::string_view flag, double fallback) const {
  const auto v = value_of(flag, /*reject_empty=*/true);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const double out = std::stod(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing junk");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag " + std::string(flag) +
                                ": not a number: " + *v);
  }
}

std::string ArgParser::get_string(std::string_view flag,
                                  std::string fallback) const {
  const auto v = value_of(flag, /*reject_empty=*/false);
  if (!v) return fallback;
  return *v;
}

std::vector<std::uint64_t> ArgParser::get_u64_list(
    std::string_view flag, std::vector<std::uint64_t> fallback) const {
  const auto v = value_of(flag, /*reject_empty=*/true);
  if (!v) return fallback;
  std::vector<std::uint64_t> out;
  std::size_t start = 0;
  while (start <= v->size()) {
    std::size_t comma = v->find(',', start);
    if (comma == std::string::npos) comma = v->size();
    const std::string_view tok(v->data() + start, comma - start);
    std::uint64_t x = 0;
    const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(),
                                           x);
    if (ec != std::errc() || ptr != tok.data() + tok.size()) {
      throw std::invalid_argument("flag " + std::string(flag) +
                                  ": bad list element: " + std::string(tok));
    }
    out.push_back(x);
    start = comma + 1;
  }
  return out;
}

std::vector<std::string> ArgParser::unused() const {
  std::vector<std::string> out;
  for (const auto& [k, used] : used_) {
    if (!used) out.push_back(k);
  }
  return out;
}

}  // namespace geochoice::sim
