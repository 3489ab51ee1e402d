#include "common/flags.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace incsr {
namespace {

std::string Format(double value) {
  char text[32];
  std::snprintf(text, sizeof text, "%g", value);
  return text;
}

// "in [lo, hi]", ">= lo", "<= hi", or "" when both ends are empty (open).
std::string RangeText(const std::string& lo, const std::string& hi,
                      bool exclusive_lo) {
  const std::string open = exclusive_lo ? "(" : "[";
  if (!lo.empty() && !hi.empty()) return "in " + open + lo + ", " + hi + "]";
  if (!hi.empty()) return "<= " + hi;
  return lo.empty() ? "" : (exclusive_lo ? "> " : ">= ") + lo;
}

Status Invalid(const std::string& flag, const std::string& needs,
               const std::string& got) {
  return Status::InvalidArgument("flag " + flag + " needs " + needs +
                                 ", got '" + got + "'");
}

}  // namespace

FlagTable& FlagTable::Add(std::string name, std::string value,
                          std::string help, const std::string& shown,
                          const std::string& range, int arity, Setter set) {
  std::string note = shown.empty() ? "" : "default " + shown;
  if (!range.empty()) note += (note.empty() ? "" : "; ") + range;
  if (!note.empty()) help += " (" + note + ")";
  rows_.push_back({.name = std::move(name), .value = std::move(value),
                   .help = std::move(help), .arity = arity,
                   .set = std::move(set)});
  return *this;
}

FlagTable& FlagTable::Integers(
    std::string name, std::string value, std::string help, Shape shape,
    long long min, long long max, long long type_max, const std::string& shown,
    std::function<void(const std::vector<long long>&)> store) {
  const std::string needs = "an integer in [" + std::to_string(min) + ", " +
                            std::to_string(max) + "]";
  const int arity = shape == Shape::kPair ? 2 : 1;
  Setter set = [=, flag = name](char* const* words) -> Status {
    std::vector<std::string> items(words, words + arity);
    if (shape == Shape::kList) {  // every comma splits: "1,,2" and "1," fail
      std::string rest = items[0];
      items.clear();
      for (std::size_t comma; (comma = rest.find(',')) != rest.npos;
           rest.erase(0, comma + 1)) {
        items.push_back(rest.substr(0, comma));
      }
      items.push_back(rest);
    }
    std::vector<long long> values;
    for (const std::string& item : items) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(item.c_str(), &end, 10);
      if (end == item.c_str() || *end != '\0' || errno == ERANGE || v < min ||
          v > max) {
        return Invalid(flag, needs, item);
      }
      values.push_back(v);
    }
    store(values);
    return Status::OK();
  };
  const std::string range =
      RangeText(min == 0 ? "" : std::to_string(min),
                max == type_max ? "" : std::to_string(max), false);
  return Add(std::move(name), std::move(value), std::move(help), shown, range,
             arity, std::move(set));
}

FlagTable& FlagTable::Double(std::string name, std::string value,
                             std::string help, double* target, double min,
                             double max, bool exclusive_min) {
  const auto in_range = [=](double v) {
    return (exclusive_min ? v > min : v >= min) && v <= max;
  };
  const std::string range =
      RangeText(min == -DBL_MAX ? "" : Format(min),
                max == DBL_MAX ? "" : Format(max), exclusive_min);
  const std::string needs =
      "a finite number" + (range.empty() ? "" : " " + range);
  Setter set = [=, flag = name](char* const* words) -> Status {
    char* end = nullptr;
    const double v = std::strtod(words[0], &end);
    if (end == words[0] || *end != '\0' || !std::isfinite(v) || !in_range(v)) {
      return Invalid(flag, needs, words[0]);
    }
    *target = v;
    return Status::OK();
  };
  return Add(std::move(name), std::move(value), std::move(help),
             in_range(*target) ? Format(*target) : "", range, 1,
             std::move(set));
}

FlagTable& FlagTable::String(std::string name, std::string value,
                             std::string help, std::string* target) {
  return Add(std::move(name), std::move(value), std::move(help), *target, "",
             1, [target](char* const* words) {
               *target = words[0];
               return Status::OK();
             });
}

FlagTable& FlagTable::Switch(std::string name, std::string help,
                             bool* target) {
  return Add(std::move(name), "", std::move(help), "", "", 0,
             [target](char* const*) {
               *target = true;
               return Status::OK();
             });
}

FlagTable& FlagTable::Words(std::string name, std::string help,
                            std::vector<std::string> words,
                            const std::string& shown,
                            std::function<void(std::size_t)> store) {
  std::string joined;
  for (const std::string& word : words) {
    joined += (joined.empty() ? "" : "|") + word;
  }
  Setter set = [=, flag = name](char* const* given) -> Status {
    const auto it = std::find(words.begin(), words.end(), given[0]);
    if (it == words.end()) return Invalid(flag, "one of " + joined, given[0]);
    store(static_cast<std::size_t>(it - words.begin()));
    return Status::OK();
  };
  return Add(std::move(name), joined, std::move(help), shown, "", 1,
             std::move(set));
}

FlagTable& FlagTable::Positional(const std::string& name, std::string help,
                                 std::string* target) {
  return String("<" + name + ">", "", std::move(help), target);
}

FlagTable& FlagTable::Then(std::function<void()> action) {
  rows_.back().then = std::move(action);
  return *this;
}

Status FlagTable::Parse(int argc, char** argv, int first) {
  auto positional = rows_.begin();  // the next positional row to fill
  const auto is_positional = [](const Row& row) { return row.name[0] == '<'; };
  for (int i = first; i < argc; ++i) {
    const std::string word = argv[i];
    if (word == "--help") {
      help_requested_ = true;
      return Status::OK();
    }
    auto row = rows_.end();
    char* const* values = argv + i;
    if (word.starts_with("--")) {
      row = std::find_if(rows_.begin(), rows_.end(),
                         [&](const Row& r) { return r.name == word; });
      if (row == rows_.end()) {
        return Status::InvalidArgument("unknown flag '" + word + "'");
      }
      if (argc - 1 - i < row->arity) {
        return Status::InvalidArgument(
            "flag " + word + (row->arity == 1 ? " needs a value"
                                              : " needs two values"));
      }
      values = argv + i + 1;
      i += row->arity;
    } else {
      row = positional = std::find_if(positional, rows_.end(), is_positional);
      if (row == rows_.end()) {
        return Status::InvalidArgument("unexpected argument '" + word + "'");
      }
      ++positional;
    }
    INCSR_RETURN_IF_ERROR(row->set(values));
    if (row->then) row->then();
  }
  positional = std::find_if(positional, rows_.end(), is_positional);
  if (positional != rows_.end()) {
    return Status::InvalidArgument("missing " + positional->name);
  }
  return Status::OK();
}

std::string FlagTable::Usage() const {
  std::string out = "usage: " + program_;
  for (const Row& row : rows_) {
    if (row.name[0] == '<') out += " " + row.name;
  }
  out += " [flags]\n" + (about_.empty() ? "" : "\n" + about_ + "\n") + "\n";
  const auto line = [&out](const std::string& left, const std::string& help) {
    std::string column = "  " + left;
    column.resize(std::max<std::size_t>(column.size() + 2, 28), ' ');
    out += column + help + "\n";
  };
  for (const Row& row : rows_) {
    line(row.value.empty() ? row.name : row.name + " " + row.value, row.help);
  }
  line("--help", "print this help and exit");
  return out;
}

void FlagTable::ParseOrExit(int argc, char** argv, int first,
                            const std::function<Status()>& check) {
  const Status parsed = Parse(argc, argv, first);
  if (help_requested_) {
    std::fputs(Usage().c_str(), stdout);
    std::exit(0);
  }
  const Status status = parsed.ok() && check ? check() : parsed;
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n\n%s", status.ToString().c_str(),
                 Usage().c_str());
    std::exit(2);
  }
}

}  // namespace incsr
