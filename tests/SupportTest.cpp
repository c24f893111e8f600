//===- tests/SupportTest.cpp - Support library tests ----------------------===//

#include "support/DenseBitSet.h"
#include "support/Format.h"
#include "support/JsonParse.h"
#include "support/StringInterner.h"

#include <gtest/gtest.h>

using namespace rpcc;

namespace {

TEST(StringInternerTest, StableIds) {
  StringInterner SI;
  StrId A = SI.intern("alpha");
  StrId B = SI.intern("beta");
  EXPECT_NE(A, B);
  EXPECT_EQ(SI.intern("alpha"), A);
  EXPECT_EQ(SI.str(A), "alpha");
  EXPECT_EQ(SI.str(B), "beta");
  EXPECT_EQ(SI.size(), 2u);
}

TEST(StringInternerTest, ManyStringsNoInvalidation) {
  StringInterner SI;
  std::vector<StrId> Ids;
  for (int I = 0; I < 1000; ++I)
    Ids.push_back(SI.intern("s" + std::to_string(I)));
  for (int I = 0; I < 1000; ++I) {
    EXPECT_EQ(SI.str(Ids[I]), "s" + std::to_string(I));
    EXPECT_EQ(SI.intern("s" + std::to_string(I)), Ids[I]);
  }
}

TEST(DenseBitSetTest, BasicOps) {
  DenseBitSet S(130);
  EXPECT_TRUE(S.none());
  S.set(0);
  S.set(64);
  S.set(129);
  EXPECT_TRUE(S.test(0));
  EXPECT_TRUE(S.test(64));
  EXPECT_TRUE(S.test(129));
  EXPECT_FALSE(S.test(1));
  EXPECT_EQ(S.count(), 3u);
  S.reset(64);
  EXPECT_FALSE(S.test(64));
  EXPECT_EQ(S.count(), 2u);
}

TEST(DenseBitSetTest, Popcount64MatchesBuiltin) {
  EXPECT_EQ(popcount64(0), 0u);
  EXPECT_EQ(popcount64(~uint64_t(0)), 64u);
  uint64_t X = 0x9e3779b97f4a7c15ULL;
  for (int I = 0; I != 1000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    EXPECT_EQ(popcount64(X),
              static_cast<unsigned>(__builtin_popcountll(X)))
        << std::hex << X;
  }
}

TEST(DenseBitSetTest, SetAlgebra) {
  DenseBitSet A(100), B(100);
  A.set(1);
  A.set(50);
  B.set(50);
  B.set(99);

  DenseBitSet U = A;
  EXPECT_TRUE(U.unionWith(B));
  EXPECT_EQ(U.count(), 3u);
  EXPECT_FALSE(U.unionWith(B)); // no change second time

  DenseBitSet I = A;
  EXPECT_TRUE(I.intersectWith(B));
  EXPECT_EQ(I.count(), 1u);
  EXPECT_TRUE(I.test(50));

  DenseBitSet D = A;
  EXPECT_TRUE(D.subtract(B));
  EXPECT_EQ(D.count(), 1u);
  EXPECT_TRUE(D.test(1));
}

TEST(DenseBitSetTest, SetAllRespectsTail) {
  DenseBitSet S(70);
  S.setAll();
  EXPECT_EQ(S.count(), 70u);
}

TEST(DenseBitSetTest, ForEachAscending) {
  DenseBitSet S(200);
  S.set(3);
  S.set(64);
  S.set(199);
  std::vector<size_t> Got;
  S.forEach([&](size_t I) { Got.push_back(I); });
  EXPECT_EQ(Got, (std::vector<size_t>{3, 64, 199}));
}

TEST(FormatTest, WithCommas) {
  EXPECT_EQ(withCommas(0), "0");
  EXPECT_EQ(withCommas(999), "999");
  EXPECT_EQ(withCommas(1000), "1,000");
  EXPECT_EQ(withCommas(132386726), "132,386,726");
  EXPECT_EQ(withCommasSigned(-5484688), "-5,484,688");
}

TEST(FormatTest, Fixed) {
  EXPECT_EQ(fixed(4.136, 2), "4.14");
  EXPECT_EQ(fixed(0.0, 2), "0.00");
  EXPECT_EQ(fixed(-0.015, 2), "-0.01"); // snprintf half-even / truncation
}

TEST(FormatTest, TextTableAlignment) {
  TextTable T({"program", "ops"});
  T.addRow({"tsp", "51,049"});
  T.addRow({"mlink", "5,885,109"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("program"), std::string::npos);
  EXPECT_NE(Out.find("tsp"), std::string::npos);
  // Numbers right-aligned: the shorter number is padded on the left.
  EXPECT_NE(Out.find("   51,049"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// JsonParse: the one JSON reader (rpserved requests, rploadgen, rpjson)
//===----------------------------------------------------------------------===//

/// The error parseJson reports for \p Text, or "" when it parses.
std::string jsonError(const std::string &Text) {
  JsonValue V;
  std::string Err;
  return parseJson(Text, V, Err) ? std::string() : Err;
}

bool mentions(const std::string &Err, const char *Phrase) {
  return Err.find(Phrase) != std::string::npos;
}

TEST(JsonParseTest, RejectsEscapedNul) {
  // A \u0000 escape would decode to an embedded NUL that truncates C-string
  // uses downstream (the /suite path-traversal probe); it is a parse error.
  JsonValue V;
  std::string Err;
  EXPECT_FALSE(parseJson("{\"name\":\"a\\u0000b\"}", V, Err));
  EXPECT_NE(Err.find("u0000"), std::string::npos);
  // Other BMP escapes still decode.
  ASSERT_TRUE(parseJson("{\"name\":\"a\\u0041b\"}", V, Err)) << Err;
  EXPECT_EQ(V.strOr("name", "", Err), "aAb");
}

TEST(JsonParseTest, NestingStopsAtMaxDepth) {
  // The reader's kMaxDepth: a value inside 64 containers parses, one
  // container more is refused, and so is a far deeper input, without
  // recursing into it.
  const int MaxDepth = 64;
  auto Arrays = [](int N) {
    return std::string(N, '[') + "1" + std::string(N, ']');
  };
  auto Objects = [](int N) {
    std::string S;
    for (int I = 0; I != N; ++I)
      S += "{\"k\":";
    return S + "1" + std::string(N, '}');
  };
  EXPECT_EQ(jsonError(Arrays(MaxDepth)), "");
  EXPECT_EQ(jsonError(Objects(MaxDepth)), "");
  EXPECT_TRUE(mentions(jsonError(Arrays(MaxDepth + 1)), "nesting too deep"));
  EXPECT_TRUE(mentions(jsonError(Objects(MaxDepth + 1)), "nesting too deep"));
  EXPECT_TRUE(mentions(jsonError(Arrays(200000)), "nesting too deep"));
}

TEST(JsonParseTest, RejectsTrailingGarbage) {
  EXPECT_EQ(jsonError("{\"a\":1} \n\t"), "");
  EXPECT_TRUE(mentions(jsonError("{\"a\":1} x"), "trailing garbage"));
  EXPECT_TRUE(mentions(jsonError("1 2"), "trailing garbage"));
}

TEST(JsonParseTest, RejectsUnterminatedValues) {
  EXPECT_TRUE(mentions(jsonError("\"abc"), "unterminated string"));
  EXPECT_TRUE(mentions(jsonError("[1, 2"), "unterminated array"));
  EXPECT_TRUE(mentions(jsonError("{\"a\": 1"), "unterminated object"));
}

TEST(JsonParseTest, RejectsBadStringContents) {
  EXPECT_TRUE(mentions(jsonError("\"a\\qb\""), "bad escape character"));
  EXPECT_TRUE(mentions(jsonError("\"\\u12G4\""), "bad hex digit"));
  EXPECT_TRUE(mentions(jsonError("\"a\tb\""), "raw control character"));
}

TEST(JsonParseTest, RejectsMalformedNumbers) {
  EXPECT_TRUE(mentions(jsonError("-"), "malformed number"));
  EXPECT_TRUE(mentions(jsonError(".5"), "malformed number"));
  EXPECT_EQ(jsonError("-0.5e+3"), "");
}

TEST(JsonParseTest, NumbersFollowRfc8259) {
  // A fraction and an exponent each need at least one digit, and an
  // integer part longer than one digit must not start with 0.
  for (const char *Bad : {"1.", "1e", "1E", "1e+", "1e-", "1.e5", "01", "-01",
                          "00", "-", "[1.]", "{\"a\":01}"})
    EXPECT_TRUE(mentions(jsonError(Bad), "malformed number")) << Bad;
  for (const char *Good : {"0", "-0", "10", "0.5", "-0.0", "1e5", "1E+5",
                           "1e-0", "120.25e-3", "[0,1,20]"})
    EXPECT_EQ(jsonError(Good), "") << Good;
}

TEST(JsonParseTest, DecodesBmpEscapesAsUtf8) {
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(parseJson("[\"\\u00e9\", \"\\u20AC\"]", V, Err)) << Err;
  ASSERT_EQ(V.Items.size(), 2u);
  EXPECT_EQ(V.Items[0].Str, "\xC3\xA9");     // é
  EXPECT_EQ(V.Items[1].Str, "\xE2\x82\xAC"); // €
}

TEST(JsonParseTest, FieldReturnsFirstOfDuplicateKeys) {
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(parseJson("{\"a\":1,\"a\":2}", V, Err)) << Err;
  EXPECT_EQ(V.Members.size(), 2u);
  ASSERT_NE(V.field("a"), nullptr);
  EXPECT_EQ(V.field("a")->Num, 1);
}

} // namespace
