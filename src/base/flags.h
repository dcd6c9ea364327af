// Strict `--flag=value` command-line parsing shared by the tools.
//
// Every number is parsed whole and range-checked: an empty value, trailing
// junk ("3x", "1,2"), overflow or an out-of-range value is an error, never
// a silent 0 the way atoi/atof would read it. Each tool names itself and
// its usage text once in a FlagContext, so every rejection prints the same
// shape: "<program>: <what was wrong>" followed by the usage.

#ifndef SRC_BASE_FLAGS_H_
#define SRC_BASE_FLAGS_H_

#include <cstdint>

namespace emeralds {

// True when `arg` is exactly `name=value`; *value then points past the '='.
bool FlagValue(const char* arg, const char* name, const char** value);

// The whole of `s` as a base-10 integer in [min, max].
bool ParseInt(const char* s, int64_t min, int64_t max, int64_t* out);

// The whole of `s` as a finite decimal number in [min, max].
bool ParseDouble(const char* s, double min, double max, double* out);

struct FlagContext {
  const char* program;
  const char* usage;

  // Prints "<program>: <formatted message>", a newline and the usage text
  // on stderr.
  [[gnu::format(printf, 2, 3)]] void Fail(const char* format, ...) const;

  // Parses `value` of `flag` into *out, or reports the bad value with the
  // wanted range and returns false. The bounds must fit in int64_t.
  template <typename T>
  bool Int(const char* flag, const char* value, T min, T max, T* out) const {
    int64_t v = 0;
    if (!ParseInt(value, static_cast<int64_t>(min), static_cast<int64_t>(max), &v)) {
      Fail("bad value '%s' for %s (want integer in [%lld, %lld])", value, flag,
           static_cast<long long>(min), static_cast<long long>(max));
      return false;
    }
    *out = static_cast<T>(v);
    return true;
  }

  bool Double(const char* flag, const char* value, double min, double max,
              double* out) const;
};

}  // namespace emeralds

#endif  // SRC_BASE_FLAGS_H_
