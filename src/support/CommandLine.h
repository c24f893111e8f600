//===- support/CommandLine.h - Strict option-value parsing ------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parser of numeric command-line values, shared by the tools and
/// the bench harnesses. Unlike atoi/atof it rejects "", "12abc" and values
/// that do not fit, so a typo is a diagnosed error and not a silent
/// default. Header-only: tools that do not link the rpcc library use it too.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_SUPPORT_COMMANDLINE_H
#define RPCC_SUPPORT_COMMANDLINE_H

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

namespace rpcc {

/// Strict base-10 parse: non-empty, every character a digit, value fits
/// in \p T.
template <typename T> bool parseUnsigned(const char *S, T &Out) {
  static_assert(std::is_unsigned_v<T>, "parseUnsigned takes unsigned types");
  if (!*S)
    return false;
  T V = 0;
  for (; *S; ++S) {
    if (*S < '0' || *S > '9')
      return false;
    T D = static_cast<T>(*S - '0');
    if (V > (std::numeric_limits<T>::max() - D) / 10)
      return false;
    V = static_cast<T>(V * 10 + D);
  }
  Out = V;
  return true;
}

/// Strict decimal parse of a finite double: strtod must consume the whole,
/// non-empty string.
inline bool parseDouble(const char *S, double &Out) {
  if (!*S || std::isspace(static_cast<unsigned char>(*S)))
    return false;
  char *End = nullptr;
  double V = std::strtod(S, &End);
  if (*End != '\0' || !std::isfinite(V))
    return false;
  Out = V;
  return true;
}

/// Matches a mandatory-value flag in both its "--flag=V" and "--flag V"
/// spellings. Returns 0 on no match, 1 on match (Val filled, I advanced in
/// the space form), -1 on a match with the value missing.
inline int matchValueFlag(int argc, char **argv, int &I, const char *Name,
                          std::string &Val) {
  const char *A = argv[I];
  size_t N = std::strlen(Name);
  if (std::strncmp(A, Name, N) != 0)
    return 0;
  if (A[N] == '=') {
    Val = A + N + 1;
    return Val.empty() ? -1 : 1;
  }
  if (A[N] == '\0') {
    if (I + 1 >= argc)
      return -1;
    Val = argv[++I];
    return 1;
  }
  return 0;
}

} // namespace rpcc

#endif // RPCC_SUPPORT_COMMANDLINE_H
