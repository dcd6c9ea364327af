// CLI for the report checker (see bench_json_check.h):
//
//   bench_json_check <report.json>
//
// Prints "OK: <path> (<summary>)" or "FAIL: <reason>". Exit status: 0 the
// report passes, 1 it fails (or does not parse), 2 usage.

#include <cstdio>
#include <string>

#include "bench/bench_json_check.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: bench_json_check <report.json>\n");
    return 2;
  }
  emeralds::JsonValue root;
  std::string message;
  if (!emeralds::JsonParseFile(argv[1], &root, &message) ||
      !emeralds::bench::CheckReport(root, &message)) {
    std::fprintf(stderr, "FAIL: %s\n", message.c_str());
    return 1;
  }
  std::printf("OK: %s (%s)\n", argv[1], message.c_str());
  return 0;
}
