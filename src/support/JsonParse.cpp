//===- support/JsonParse.cpp - Minimal JSON reader ------------------------===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "support/JsonParse.h"

#include <cstdlib>
#include <cstring>

namespace rpcc {

namespace {

constexpr int kMaxDepth = 64;

class Parser {
public:
  Parser(const std::string &Text) : S(Text) {}

  bool run(JsonValue &Out, std::string &Error) {
    skipWs();
    if (!value(Out, 0))
      return fail(Error);
    skipWs();
    if (Pos != S.size()) {
      Err = "trailing garbage";
      return fail(Error);
    }
    return true;
  }

private:
  const std::string &S;
  size_t Pos = 0;
  std::string Err;

  bool fail(std::string &Error) {
    if (Err.empty())
      return true;
    Error = Err + " at offset " + std::to_string(Pos);
    return false;
  }

  bool setErr(const char *Why) {
    if (Err.empty())
      Err = Why;
    return false;
  }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool lit(const char *Word) {
    size_t N = std::strlen(Word);
    if (S.compare(Pos, N, Word) != 0)
      return setErr("unexpected token");
    Pos += N;
    return true;
  }

  bool value(JsonValue &Out, int Depth) {
    if (Depth > kMaxDepth)
      return setErr("nesting too deep");
    if (Pos >= S.size())
      return setErr("unexpected end of input");
    switch (S[Pos]) {
    case '{':
      return object(Out, Depth);
    case '[':
      return array(Out, Depth);
    case '"':
      Out.K = JsonValue::String;
      return string(Out.Str);
    case 't':
      Out.K = JsonValue::Bool;
      Out.B = true;
      return lit("true");
    case 'f':
      Out.K = JsonValue::Bool;
      Out.B = false;
      return lit("false");
    case 'n':
      Out.K = JsonValue::Null;
      return lit("null");
    default:
      return number(Out);
    }
  }

  bool object(JsonValue &Out, int Depth) {
    Out.K = JsonValue::Object;
    ++Pos; // '{'
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      if (Pos >= S.size() || S[Pos] != '"')
        return setErr("expected object key");
      std::string Key;
      if (!string(Key))
        return false;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':')
        return setErr("expected ':'");
      ++Pos;
      skipWs();
      JsonValue V;
      if (!value(V, Depth + 1))
        return false;
      Out.Members.emplace_back(std::move(Key), std::move(V));
      skipWs();
      if (Pos >= S.size())
        return setErr("unterminated object");
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == '}') {
        ++Pos;
        return true;
      }
      return setErr("expected ',' or '}'");
    }
  }

  bool array(JsonValue &Out, int Depth) {
    Out.K = JsonValue::Array;
    ++Pos; // '['
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      JsonValue V;
      if (!value(V, Depth + 1))
        return false;
      Out.Items.push_back(std::move(V));
      skipWs();
      if (Pos >= S.size())
        return setErr("unterminated array");
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == ']') {
        ++Pos;
        return true;
      }
      return setErr("expected ',' or ']'");
    }
  }

  bool string(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (Pos < S.size()) {
      char C = S[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return setErr("raw control character in string");
      if (C != '\\') {
        Out += C;
        ++Pos;
        continue;
      }
      if (++Pos >= S.size())
        return setErr("unterminated escape");
      char E = S[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > S.size())
          return setErr("truncated \\u escape");
        unsigned V = 0;
        for (int I = 0; I != 4; ++I) {
          char H = S[Pos++];
          V <<= 4;
          if (H >= '0' && H <= '9')
            V |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            V |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            V |= static_cast<unsigned>(H - 'A' + 10);
          else
            return setErr("bad hex digit in \\u escape");
        }
        // An embedded NUL silently truncates any downstream C-string use
        // (filesystem paths most dangerously); no rpcc client needs one,
        // so it is a parse error rather than a decoded byte.
        if (V == 0)
          return setErr("\\u0000 is not supported");
        // BMP code point as UTF-8; surrogate pairs are not needed by any
        // rpcc client and decode as their raw halves.
        if (V < 0x80) {
          Out += static_cast<char>(V);
        } else if (V < 0x800) {
          Out += static_cast<char>(0xC0 | (V >> 6));
          Out += static_cast<char>(0x80 | (V & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (V >> 12));
          Out += static_cast<char>(0x80 | ((V >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (V & 0x3F));
        }
        break;
      }
      default:
        return setErr("bad escape character");
      }
    }
    return setErr("unterminated string");
  }

  /// Consumes a run of decimal digits; returns how many.
  size_t digits() {
    const size_t Start = Pos;
    while (Pos < S.size() && S[Pos] >= '0' && S[Pos] <= '9')
      ++Pos;
    return Pos - Start;
  }

  /// RFC 8259 number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool number(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    const size_t IntStart = Pos;
    const size_t IntDigits = digits();
    if (IntDigits == 0 || (IntDigits > 1 && S[IntStart] == '0'))
      return setErr("malformed number");
    if (Pos < S.size() && S[Pos] == '.') {
      ++Pos;
      if (digits() == 0)
        return setErr("malformed number");
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
      ++Pos;
      if (Pos < S.size() && (S[Pos] == '+' || S[Pos] == '-'))
        ++Pos;
      if (digits() == 0)
        return setErr("malformed number");
    }
    Out.K = JsonValue::Number;
    Out.Num = std::strtod(S.c_str() + Start, nullptr);
    return true;
  }
};

} // namespace

bool parseJson(const std::string &Text, JsonValue &Out, std::string &Error) {
  Out = JsonValue();
  Error.clear();
  return Parser(Text).run(Out, Error);
}

std::string JsonValue::strOr(const std::string &Name,
                             const std::string &Fallback,
                             std::string &Err) const {
  const JsonValue *F = field(Name);
  if (!F)
    return Fallback;
  if (F->K != String) {
    if (Err.empty())
      Err = "field '" + Name + "' must be a string";
    return Fallback;
  }
  return F->Str;
}

bool JsonValue::boolOr(const std::string &Name, bool Fallback,
                       std::string &Err) const {
  const JsonValue *F = field(Name);
  if (!F)
    return Fallback;
  if (F->K != Bool) {
    if (Err.empty())
      Err = "field '" + Name + "' must be a boolean";
    return Fallback;
  }
  return F->B;
}

double JsonValue::numOr(const std::string &Name, double Fallback,
                        std::string &Err) const {
  const JsonValue *F = field(Name);
  if (!F)
    return Fallback;
  if (F->K != Number) {
    if (Err.empty())
      Err = "field '" + Name + "' must be a number";
    return Fallback;
  }
  return F->Num;
}

} // namespace rpcc
