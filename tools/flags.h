// Strict `--name VALUE` flag parsing shared by the command-line tools.
//
// Each command declares the flags it takes; anything else on its command
// line is an error (exit 2), never silently ignored, so a stale or mistyped
// command line cannot quietly do something else.

#ifndef TOOLS_FLAGS_H_
#define TOOLS_FLAGS_H_

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace dcc {

// The `--name VALUE` pairs of one command line, in order. Every flag takes
// a value; a repeated flag keeps each value (--set) and Get reads the last.
struct Flags {
  std::vector<std::pair<std::string, std::string>> given;

  const char* Get(const char* name) const {
    for (auto it = given.rbegin(); it != given.rend(); ++it) {
      if (it->first == name) {
        return it->second.c_str();
      }
    }
    return nullptr;
  }

  std::vector<std::string> All(const char* name) const {
    std::vector<std::string> values;
    for (const auto& [flag, value] : given) {
      if (flag == name) {
        values.push_back(value);
      }
    }
    return values;
  }
};

// Parses argv[first..] against the command's flag names. An unknown flag, a
// stray argument or a flag missing its value is reported by name on stderr
// as `TOOL COMMAND: ...`; the caller exits 2.
inline bool ParseFlags(const char* tool, int first, int argc, char** argv,
                       const std::vector<const char*>& known, Flags* flags) {
  for (int i = first; i < argc; i += 2) {
    const bool defined = std::any_of(known.begin(), known.end(), [&](const char* name) {
      return std::strcmp(argv[i], name) == 0;
    });
    if (!defined) {
      std::fprintf(stderr, "%s %s: unknown flag '%s' (see %s --help)\n", tool,
                   argv[1], argv[i], tool);
      return false;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s %s: flag '%s' needs a value\n", tool, argv[1],
                   argv[i]);
      return false;
    }
    flags->given.emplace_back(argv[i], argv[i + 1]);
  }
  return true;
}

// A number flag; the whole value must parse as a finite number (exit 2).
inline double FlagDouble(const Flags& flags, const char* name, double fallback) {
  const char* text = flags.Get(name);
  if (text == nullptr) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno != 0 || !std::isfinite(value)) {
    std::fprintf(stderr, "%s: expected a number, got '%s'\n", name, text);
    std::exit(2);
  }
  return value;
}

}  // namespace dcc

#endif  // TOOLS_FLAGS_H_
