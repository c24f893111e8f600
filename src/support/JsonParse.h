//===- support/JsonParse.h - Minimal JSON reader ----------------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON parser, the toolchain's one JSON reader:
/// rpserved request bodies, rploadgen's response checks, and the rpjson
/// validator all read through it. rpjson compiles JsonParse.cpp in but
/// links nothing else of rpcc: it double-checks the emitters (support/Json,
/// src/obs), so it shares the reader but never an emitter. Request bodies
/// are untrusted bytes coming in, so one hardened implementation is
/// exactly right.
///
/// Depth- and size-limited: nesting beyond kMaxDepth and inputs that do not
/// parse fail cleanly with a message, never recurse unboundedly.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_SUPPORT_JSONPARSE_H
#define RPCC_SUPPORT_JSONPARSE_H

#include <string>
#include <utility>
#include <vector>

namespace rpcc {

struct JsonValue {
  enum Kind { Null, Bool, Number, String, Array, Object } K = Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Items;
  std::vector<std::pair<std::string, JsonValue>> Members;

  const JsonValue *field(const std::string &Name) const {
    for (const auto &M : Members)
      if (M.first == Name)
        return &M.second;
    return nullptr;
  }

  /// Typed field accessors for request handling: each returns the fallback
  /// when the field is absent, and reports a type error through \p Err when
  /// it is present with the wrong type (first error wins).
  std::string strOr(const std::string &Name, const std::string &Fallback,
                    std::string &Err) const;
  bool boolOr(const std::string &Name, bool Fallback, std::string &Err) const;
  double numOr(const std::string &Name, double Fallback,
               std::string &Err) const;
};

/// Parses \p Text as exactly one JSON value (trailing whitespace allowed,
/// trailing garbage rejected). Returns false with \p Error set on malformed
/// input.
bool parseJson(const std::string &Text, JsonValue &Out, std::string &Error);

} // namespace rpcc

#endif // RPCC_SUPPORT_JSONPARSE_H
