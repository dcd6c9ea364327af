#include "src/base/flags.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace emeralds {

bool FlagValue(const char* arg, const char* name, const char** value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

namespace {

// strtoll/strtod skip leading blanks and take a '+'; a flag value may not.
bool StartsLikeANumber(const char* s) {
  return s != nullptr && (*s == '-' || std::isdigit(static_cast<unsigned char>(*s)) ||
                          *s == '.');
}

}  // namespace

bool ParseInt(const char* s, int64_t min, int64_t max, int64_t* out) {
  if (!StartsLikeANumber(s)) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < min || v > max) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseDouble(const char* s, double min, double max, double* out) {
  if (!StartsLikeANumber(s)) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !std::isfinite(v) || v < min || v > max) {
    return false;
  }
  *out = v;
  return true;
}

void FlagContext::Fail(const char* format, ...) const {
  std::fprintf(stderr, "%s: ", program);
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fprintf(stderr, "\n%s", usage);
}

bool FlagContext::Double(const char* flag, const char* value, double min, double max,
                         double* out) const {
  if (ParseDouble(value, min, max, out)) {
    return true;
  }
  Fail("bad value '%s' for %s (want number in [%g, %g])", value, flag, min, max);
  return false;
}

}  // namespace emeralds
