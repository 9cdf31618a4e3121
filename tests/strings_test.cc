// Tests for string utilities (tokenization feeds the keyword index).

#include "src/common/strings.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace paw {
namespace {

TEST(StringsTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("Query OMIM"), "query omim");
  EXPECT_EQ(ToLowerAscii(""), "");
  EXPECT_EQ(ToLowerAscii("123-ABC"), "123-abc");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a;b;;c", ';'),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ';'), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("solo", ';'), (std::vector<std::string>{"solo"}));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\nabc\r "), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StringsTest, TokenizeSplitsOnNonAlnum) {
  EXPECT_EQ(Tokenize("Determine Genetic Susceptibility"),
            (std::vector<std::string>{"determine", "genetic",
                                      "susceptibility"}));
  EXPECT_EQ(Tokenize("Query-OMIM (v2)"),
            (std::vector<std::string>{"query", "omim", "v2"}));
  EXPECT_TRUE(Tokenize("---").empty());
}

TEST(StringsTest, HasTokenAgreesWithTokenize) {
  EXPECT_TRUE(HasToken("Query-OMIM (v2)", "omim"));
  EXPECT_TRUE(HasToken("Query-OMIM (v2)", "v2"));
  EXPECT_FALSE(HasToken("Query-OMIM (v2)", "om"));     // no partial tokens
  EXPECT_FALSE(HasToken("Query-OMIM (v2)", "query-"));  // tokens are alnum
  EXPECT_FALSE(HasToken("---", "x"));
  // Membership in Tokenize's output, over every token of a few texts and
  // some that are not tokens of them.
  for (const char* text : {"Step M12", "kw3", "  Find SNPs, then expand ",
                           "a1b2 A1B2 c"}) {
    for (const std::string& t : Tokenize(text)) {
      EXPECT_TRUE(HasToken(text, t)) << text << " / " << t;
    }
    for (const char* other : {"step", "m1", "snp", "expand", "c", "zz"}) {
      const std::vector<std::string> tokens = Tokenize(text);
      const bool want =
          std::find(tokens.begin(), tokens.end(), other) != tokens.end();
      EXPECT_EQ(HasToken(text, other), want) << text << " / " << other;
    }
  }
}

TEST(StringsTest, ContainsIgnoreCase) {
  EXPECT_TRUE(ContainsIgnoreCase("Disorder Risks", "disorder"));
  EXPECT_TRUE(ContainsIgnoreCase("Disorder Risks", "RISK"));
  EXPECT_FALSE(ContainsIgnoreCase("Disorder", "database"));
  EXPECT_TRUE(ContainsIgnoreCase("anything", ""));
}

TEST(StringsTest, TokensContainPhrase) {
  std::vector<std::string> bag = Tokenize("Evaluate Disorder Risk");
  EXPECT_TRUE(TokensContainPhrase(bag, "disorder risk"));
  EXPECT_TRUE(TokensContainPhrase(bag, "RISK disorder"));  // order-free
  EXPECT_TRUE(TokensContainPhrase(bag, "evaluate"));
  EXPECT_FALSE(TokensContainPhrase(bag, "disorder database"));
  EXPECT_TRUE(TokensContainPhrase(bag, ""));  // empty phrase is trivial
}

TEST(FieldsTest, QuoteFieldEscapes) {
  EXPECT_EQ(QuoteField("plain"), "\"plain\"");
  EXPECT_EQ(QuoteField("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(QuoteField("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(QuoteField(""), "\"\"");
}

TEST(FieldsTest, SplitFieldsBasics) {
  auto f = SplitFields("alpha beta\tgamma");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
}

TEST(FieldsTest, SplitFieldsQuoted) {
  auto f = SplitFields("module M1 \"a name with spaces\" key=\"v w\"");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value(),
            (std::vector<std::string>{"module", "M1",
                                      "a name with spaces", "key=v w"}));
}

TEST(FieldsTest, SplitFieldsRejectsUnterminatedQuote) {
  EXPECT_FALSE(SplitFields("oops \"no closing").ok());
}

TEST(FieldsTest, KeyValueFieldMatches) {
  std::string v;
  EXPECT_TRUE(KeyValueField("level=3", "level", &v));
  EXPECT_EQ(v, "3");
  EXPECT_FALSE(KeyValueField("level=3", "leve", &v));
  EXPECT_FALSE(KeyValueField("level", "level", &v));
  // `key=` is a present-but-empty value (items can have value "").
  v = "sentinel";
  EXPECT_TRUE(KeyValueField("level=", "level", &v));
  EXPECT_EQ(v, "");
}

TEST(FieldsTest, QuoteEdgedValueRoundTrips) {
  // A *data* value that itself begins and ends with a double quote
  // must survive serialize -> split -> key=value extraction unchanged
  // (regression: an extra unquoting layer used to strip it to `x`).
  const std::string data = "\"x\"";
  const std::string line = "item value=" + QuoteField(data);
  auto f = SplitFields(line);
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(f.value().size(), 2u);
  std::string v;
  ASSERT_TRUE(KeyValueField(f.value()[1], "value", &v));
  EXPECT_EQ(v, data);
}

}  // namespace
}  // namespace paw
