#include "sim/cli.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <stdexcept>

namespace mobichk::sim {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

std::string ArgParser::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

namespace {

// std::stod/stoull accept trailing garbage ("5x" parses as 5) and report
// bare "stod"/"stoull" on failure; flag values should fail loudly and
// name the flag instead.
template <typename Parse>
auto parse_number(const std::string& key, const std::string& text, Parse parse) {
  usize consumed = 0;
  try {
    const auto value = parse(text, &consumed);
    if (consumed == text.size()) return value;
  } catch (const std::exception&) {
    // fall through to the uniform error below
  }
  throw std::invalid_argument("flag --" + key + ": expected a number, got '" + text + "'");
}

}  // namespace

f64 ArgParser::get_f64(const std::string& key, f64 fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_number(key, it->second,
                      [](const std::string& s, usize* pos) { return std::stod(s, pos); });
}

u64 ArgParser::get_u64(const std::string& key, u64 fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (!it->second.empty() && it->second.front() == '-') {
    // stoull would silently wrap "-5" to 2^64-5.
    throw std::invalid_argument("flag --" + key + ": expected a non-negative integer, got '" +
                                it->second + "'");
  }
  return parse_number(key, it->second,
                      [](const std::string& s, usize* pos) { return std::stoull(s, pos); });
}

u32 ArgParser::get_u32(const std::string& key, u32 fallback) const {
  return static_cast<u32>(get_u64(key, fallback));
}

bool ArgParser::get_flag(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return false;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> ArgParser::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

namespace {

const char* flag_type_name(FlagType type) {
  switch (type) {
    case FlagType::kString: return "string";
    case FlagType::kUInt: return "uint";
    case FlagType::kNumber: return "number";
    case FlagType::kBool: return "";
  }
  return "";
}

/// Classic two-row Levenshtein; early-outs are pointless at flag-name
/// lengths.
usize edit_distance(const std::string& a, const std::string& b) {
  std::vector<usize> prev(b.size() + 1), cur(b.size() + 1);
  for (usize j = 0; j <= b.size(); ++j) prev[j] = j;
  for (usize i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (usize j = 1; j <= b.size(); ++j) {
      const usize sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

FlagSet::FlagSet(std::string usage) : usage_(std::move(usage)) {
  add("help", FlagType::kBool, "", "show this help and exit");
}

FlagSet& FlagSet::add(std::string name, FlagType type, std::string default_text,
                      std::string help) {
  if (known(name)) throw std::logic_error("FlagSet: flag --" + name + " registered twice");
  flags_.push_back(FlagSpec{std::move(name), type, std::move(default_text), std::move(help)});
  return *this;
}

bool FlagSet::known(const std::string& name) const noexcept {
  return std::any_of(flags_.begin(), flags_.end(),
                     [&](const FlagSpec& f) { return f.name == name; });
}

std::string FlagSet::suggest(const std::string& name) const {
  std::string best;
  usize best_dist = 3;  // accept distance <= 2
  for (const FlagSpec& f : flags_) {
    // A unique registered extension of what was typed ("--prec" for
    // "--precision") beats edit distance.
    if (name.size() >= 3 && f.name.rfind(name, 0) == 0) return f.name;
    const usize d = edit_distance(name, f.name);
    if (d < best_dist) {
      best_dist = d;
      best = f.name;
    }
  }
  return best;
}

void FlagSet::print_help(std::ostream& os) const {
  os << "usage: " << usage_ << "\n\nflags:\n";
  for (const FlagSpec& f : flags_) {
    std::string left = "  --" + f.name;
    const char* type = flag_type_name(f.type);
    if (type[0] != '\0') left += "=<" + std::string(type) + ">";
    left += "  ";  // a long flag still gets a separator before its help
    os << std::left << std::setw(28) << left << f.help;
    if (!f.default_text.empty()) os << " (default: " << f.default_text << ")";
    os << "\n";
  }
  os.flush();
}

ArgParser FlagSet::parse(int argc, const char* const* argv) const {
  ArgParser args(argc, argv);
  for (const std::string& key : args.keys()) {
    if (!known(key)) {
      std::string msg = "unknown flag --" + key;
      const std::string near = suggest(key);
      if (!near.empty()) msg += " (did you mean --" + near + "?)";
      msg += "; see --help";
      throw std::invalid_argument(msg);
    }
    // Eager validation: a malformed value fails here, naming the flag
    // (this keeps the trailing-garbage rejection on the schema path too).
    const auto spec = std::find_if(flags_.begin(), flags_.end(),
                                   [&](const FlagSpec& f) { return f.name == key; });
    if (spec->type == FlagType::kUInt) {
      (void)args.get_u64(key, 0);
    } else if (spec->type == FlagType::kNumber) {
      (void)args.get_f64(key, 0.0);
    }
  }
  return args;
}

}  // namespace mobichk::sim
