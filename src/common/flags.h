// Command-line flags as a table. A binary declares each flag as one row —
// name, value name, help text and a typed target with its range — and one
// parser reads argv into the targets, range-checks every value, and
// generates the --help text from the same rows. A malformed value (not a
// number, trailing text, an overflow, NaN/inf, out of range), a missing
// value or an unknown flag is an InvalidArgument before any work starts.
//
//   FlagTable flags("tool");
//   flags.Positional("edge_list", "SNAP edge list", &path)
//       .Int("--topk", "K", "pairs to print", &topk);
//   flags.ParseOrExit(argc, argv);
//
// Each row shows its target's value at declaration as the default. A flag
// given twice keeps its last value.
#ifndef INCSR_COMMON_FLAGS_H_
#define INCSR_COMMON_FLAGS_H_

#include <cfloat>
#include <concepts>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace incsr {

class FlagTable {
  template <typename T>
  static constexpr T kMax = std::numeric_limits<T>::max();
  // A range bound takes the target's type, so `1` bounds a std::size_t.
  template <typename T>
  using Same = std::type_identity_t<T>;

 public:
  /// `program` heads the usage line; `about` follows it when not empty.
  explicit FlagTable(std::string program, std::string about = "")
      : program_(std::move(program)), about_(std::move(about)) {}

  /// An integer in [min, max]. A default outside the range (e.g. -1 for
  /// "none") is not shown.
  template <std::integral T>
  FlagTable& Int(std::string name, std::string value, std::string help,
                 T* target, Same<T> min = 0, Same<T> max = kMax<T>) {
    const bool shown = *target >= min && *target <= max;
    return Integers(std::move(name), std::move(value), std::move(help),
                    Shape::kOne, Wide(min), Wide(max), Wide(kMax<T>),
                    shown ? std::to_string(*target) : "",
                    [target](const std::vector<long long>& v) {
                      *target = static_cast<T>(v[0]);
                    });
  }

  /// A comma list of one or more integers, each in [min, max].
  template <std::integral T>
  FlagTable& IntList(std::string name, std::string value, std::string help,
                     std::vector<T>* target, Same<T> min = 0,
                     Same<T> max = kMax<T>) {
    std::string shown;
    for (T item : *target) {
      shown += (shown.empty() ? "" : ",") + std::to_string(item);
    }
    return Integers(std::move(name), std::move(value), std::move(help),
                    Shape::kList, Wide(min), Wide(max), Wide(kMax<T>), shown,
                    [target](const std::vector<long long>& v) {
                      target->assign(v.begin(), v.end());
                    });
  }

  /// Two integers in [min, max], given as two words (`--score A B`).
  template <std::integral T>
  FlagTable& IntPair(std::string name, std::string value, std::string help,
                     T* first, T* second, Same<T> min = 0,
                     Same<T> max = kMax<T>) {
    return Integers(std::move(name), std::move(value), std::move(help),
                    Shape::kPair, Wide(min), Wide(max), Wide(kMax<T>), "",
                    [first, second](const std::vector<long long>& v) {
                      *first = static_cast<T>(v[0]);
                      *second = static_cast<T>(v[1]);
                    });
  }

  /// A finite double in [min, max], or (min, max] when `exclusive_min`.
  FlagTable& Double(std::string name, std::string value, std::string help,
                    double* target, double min = -DBL_MAX,
                    double max = DBL_MAX, bool exclusive_min = false);

  FlagTable& String(std::string name, std::string value, std::string help,
                    std::string* target);

  /// A flag with no value; sets `*target` to true.
  FlagTable& Switch(std::string name, std::string help, bool* target);

  /// One of a fixed set of words, each naming a value of `*target`.
  template <typename T>
  FlagTable& Choice(std::string name, std::string help, T* target,
                    std::vector<std::pair<std::string, T>> choices) {
    std::vector<std::string> words;
    std::string shown;
    for (const auto& [word, value] : choices) {
      words.push_back(word);
      if (value == *target) shown = word;
    }
    return Words(std::move(name), std::move(help), std::move(words), shown,
                 [target, choices](std::size_t i) {
                   *target = choices[i].second;
                 });
  }

  /// A required positional argument; positionals fill in declaration order.
  FlagTable& Positional(const std::string& name, std::string help,
                        std::string* target);

  /// Runs `action` each time the last-declared row's value lands (e.g.
  /// --sparse-eps also turning the sparse tier on).
  FlagTable& Then(std::function<void()> action);

  /// Reads argv[first, argc) into the targets. `--help` stops parsing and
  /// sets help_requested().
  Status Parse(int argc, char** argv, int first = 1);
  bool help_requested() const { return help_requested_; }

  /// The usage line, `about`, then one line per row.
  std::string Usage() const;

  /// For main(): Parse, then the cross-flag `check`. After --help prints
  /// Usage() to stdout and exits 0; on an error prints it and Usage() to
  /// stderr and exits 2.
  void ParseOrExit(int argc, char** argv, int first = 1,
                   const std::function<Status()>& check = nullptr);

 private:
  enum class Shape { kOne, kPair, kList };
  using Setter = std::function<Status(char* const* words)>;

  struct Row {
    std::string name = {};  // "--topk", or "<edge_list>" for a positional
    std::string value = {};  // "K"; empty for a switch or a positional
    std::string help = {};   // with the default and range appended
    int arity = 1;           // argv words the value takes
    Setter set = {};
    std::function<void()> then = {};
  };

  // Integer rows parse as long long, so a wider maximum is capped there.
  template <std::integral T>
  static long long Wide(T v) {
    return std::cmp_greater(v, kMax<long long>) ? kMax<long long>
                                                : static_cast<long long>(v);
  }

  FlagTable& Add(std::string name, std::string value, std::string help,
                 const std::string& shown, const std::string& range,
                 int arity, Setter set);
  FlagTable& Integers(std::string name, std::string value, std::string help,
                      Shape shape, long long min, long long max,
                      long long type_max, const std::string& shown,
                      std::function<void(const std::vector<long long>&)> store);
  FlagTable& Words(std::string name, std::string help,
                   std::vector<std::string> words, const std::string& shown,
                   std::function<void(std::size_t)> store);

  std::string program_;
  std::string about_;
  std::vector<Row> rows_;
  bool help_requested_ = false;
};

}  // namespace incsr

#endif  // INCSR_COMMON_FLAGS_H_
