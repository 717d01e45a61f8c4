// Unit tests for predicates (evaluation, serde, introspection) and the
// scalar functions backing the paper's UDFs.

#include <gtest/gtest.h>

#include "expr/predicate.h"
#include "expr/scalar_functions.h"

namespace hybridjoin {
namespace {

RecordBatch TestBatch() {
  auto schema = Schema::Make({{"a", DataType::kInt32},
                              {"b", DataType::kInt32},
                              {"s", DataType::kString},
                              {"d1", DataType::kDate},
                              {"d2", DataType::kDate}});
  RecordBatch batch(schema);
  // a: 0..9, b: 9..0, s: gN/..., d1: 100+i, d2: 100
  for (int32_t i = 0; i < 10; ++i) {
    batch.AppendRow({Value(i), Value(int32_t{9 - i}),
                     Value("g" + std::to_string(i % 3) + "/x"),
                     Value(int32_t{100 + i}), Value(int32_t{100})});
  }
  return batch;
}

std::vector<uint32_t> Eval(const PredicatePtr& p, const RecordBatch& b) {
  auto sel = p->FilterAll(b);
  EXPECT_TRUE(sel.ok()) << sel.status();
  return sel.ok() ? *sel : std::vector<uint32_t>{};
}

TEST(PredicateTest, CmpOperators) {
  RecordBatch b = TestBatch();
  EXPECT_EQ(Eval(Cmp("a", CmpOp::kLt, 3), b).size(), 3u);
  EXPECT_EQ(Eval(Cmp("a", CmpOp::kLe, 3), b).size(), 4u);
  EXPECT_EQ(Eval(Cmp("a", CmpOp::kGt, 7), b).size(), 2u);
  EXPECT_EQ(Eval(Cmp("a", CmpOp::kGe, 7), b).size(), 3u);
  EXPECT_EQ(Eval(Cmp("a", CmpOp::kEq, 5), b).size(), 1u);
  EXPECT_EQ(Eval(Cmp("a", CmpOp::kNe, 5), b).size(), 9u);
}

TEST(PredicateTest, IntegerCmpMatchesNaiveCompareAtTheExtremes) {
  // Every op on int32 and int64 columns holding their types' extremes,
  // against literals at and past those extremes: the branch-free range
  // test must equal comparing the values widened to int64 (int32) or as
  // they are (int64).
  auto schema =
      Schema::Make({{"i", DataType::kInt32}, {"l", DataType::kInt64}});
  RecordBatch b(schema);
  const int64_t values[] = {INT32_MIN, INT32_MIN + 1, -1, 0, 1,
                            INT32_MAX - 1, INT32_MAX};
  for (int64_t v : values) {
    b.AppendRow({Value(static_cast<int32_t>(v)),
                 Value(v < 0 ? INT64_MIN + (v - INT32_MIN)
                             : INT64_MAX - (INT32_MAX - v))});
  }
  const int64_t literals[] = {INT64_MIN,     INT64_MIN + 1, INT32_MIN - 1LL,
                              INT32_MIN,     -1,            0,
                              INT32_MAX,     INT32_MAX + 1LL,
                              INT64_MAX - 1, INT64_MAX};
  auto naive = [](CmpOp op, int64_t a, int64_t lit) {
    switch (op) {
      case CmpOp::kEq: return a == lit;
      case CmpOp::kNe: return a != lit;
      case CmpOp::kLt: return a < lit;
      case CmpOp::kLe: return a <= lit;
      case CmpOp::kGt: return a > lit;
      case CmpOp::kGe: return a >= lit;
    }
    return false;
  };
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                   CmpOp::kGt, CmpOp::kGe}) {
    for (int64_t lit : literals) {
      for (size_t c = 0; c < 2; ++c) {
        std::vector<uint32_t> want;
        for (uint32_t r = 0; r < b.num_rows(); ++r) {
          const int64_t v =
              c == 0 ? b.column(0).i32()[r] : b.column(1).i64()[r];
          if (naive(op, v, lit)) want.push_back(r);
        }
        EXPECT_EQ(Eval(Cmp(c == 0 ? "i" : "l", op, Value(lit)), b), want)
            << CmpOpName(op) << " " << lit << " col " << c;
      }
    }
  }
}

TEST(PredicateTest, StringCompare) {
  RecordBatch b = TestBatch();
  EXPECT_EQ(Eval(Cmp("s", CmpOp::kEq, Value("g0/x")), b).size(), 4u);
}

TEST(PredicateTest, AndShortCircuits) {
  RecordBatch b = TestBatch();
  auto p = And({Cmp("a", CmpOp::kLt, 5), Cmp("b", CmpOp::kLt, 7)});
  // a<5 -> {0..4}; b<7 means 9-i<7 -> i>2 -> {3,4}
  auto sel = Eval(p, b);
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel[0], 3u);
  EXPECT_EQ(sel[1], 4u);
}

TEST(PredicateTest, OrUnions) {
  RecordBatch b = TestBatch();
  auto p = Or({Cmp("a", CmpOp::kLt, 2), Cmp("a", CmpOp::kGe, 8)});
  auto sel = Eval(p, b);
  ASSERT_EQ(sel.size(), 4u);
  EXPECT_EQ(sel[0], 0u);
  EXPECT_EQ(sel[3], 9u);
}

TEST(PredicateTest, NotComplements) {
  RecordBatch b = TestBatch();
  auto p = Not(Cmp("a", CmpOp::kLt, 4));
  EXPECT_EQ(Eval(p, b).size(), 6u);
  // Double negation.
  EXPECT_EQ(Eval(Not(Not(Cmp("a", CmpOp::kLt, 4))), b).size(), 4u);
}

TEST(PredicateTest, StrPrefix) {
  RecordBatch b = TestBatch();
  EXPECT_EQ(Eval(StrPrefix("s", "g1"), b).size(), 3u);
  EXPECT_EQ(Eval(StrPrefix("s", ""), b).size(), 10u);
  EXPECT_EQ(Eval(StrPrefix("s", "nothere"), b).size(), 0u);
}

TEST(PredicateTest, DiffRangeDateArithmetic) {
  RecordBatch b = TestBatch();
  // d1 - d2 = i; keep 0 <= i <= 1.
  auto p = DiffRange("d1", "d2", 0, 1);
  auto sel = Eval(p, b);
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel[0], 0u);
  EXPECT_EQ(sel[1], 1u);
}

TEST(PredicateTest, TrueKeepsEverything) {
  RecordBatch b = TestBatch();
  EXPECT_EQ(Eval(True(), b).size(), 10u);
}

TEST(PredicateTest, UnknownColumnIsError) {
  RecordBatch b = TestBatch();
  auto sel = Cmp("zz", CmpOp::kEq, 1)->FilterAll(b);
  EXPECT_FALSE(sel.ok());
}

TEST(PredicateTest, TypeMismatchIsError) {
  RecordBatch b = TestBatch();
  EXPECT_FALSE(Cmp("a", CmpOp::kEq, Value("str"))->FilterAll(b).ok());
  EXPECT_FALSE(Cmp("s", CmpOp::kEq, 1)->FilterAll(b).ok());
  EXPECT_FALSE(StrPrefix("a", "x")->FilterAll(b).ok());
  EXPECT_FALSE(DiffRange("s", "d1", 0, 1)->FilterAll(b).ok());
}

TEST(PredicateTest, SerdeRoundTripPreservesSemantics) {
  RecordBatch b = TestBatch();
  const std::vector<PredicatePtr> preds = {
      True(),
      Cmp("a", CmpOp::kLe, 4),
      Cmp("s", CmpOp::kEq, Value("g0/x")),
      StrPrefix("s", "g2"),
      DiffRange("d1", "d2", -1, 1),
      And({Cmp("a", CmpOp::kGt, 1), Or({Cmp("b", CmpOp::kLt, 3),
                                        Not(Cmp("a", CmpOp::kEq, 5))})}),
  };
  for (const auto& p : preds) {
    SCOPED_TRACE(p->ToString());
    auto decoded = Predicate::Deserialize(p->Serialize());
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(Eval(*decoded, b), Eval(p, b));
    EXPECT_EQ((*decoded)->ToString(), p->ToString());
  }
}

TEST(PredicateTest, DeserializeRejectsGarbage) {
  std::vector<uint8_t> garbage = {0x99, 0x01, 0x02};
  EXPECT_FALSE(Predicate::Deserialize(garbage).ok());
  EXPECT_FALSE(Predicate::Deserialize(std::vector<uint8_t>{}).ok());
}

TEST(PredicateTest, CollectColumns) {
  auto p = And({Cmp("a", CmpOp::kLt, 1), DiffRange("d1", "d2", 0, 1),
                Not(StrPrefix("s", "g"))});
  std::vector<std::string> cols;
  p->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::vector<std::string>{"a", "d1", "d2", "s"}));
}

TEST(PredicateTest, ConjunctiveIntCmpExtraction) {
  auto p = And({Cmp("a", CmpOp::kLt, 5), Cmp("b", CmpOp::kGe, 2)});
  std::vector<ConjunctiveIntCmp> cmps;
  p->CollectConjunctiveIntCmps(&cmps);
  ASSERT_EQ(cmps.size(), 2u);
  EXPECT_EQ(cmps[0].column, "a");
  EXPECT_TRUE(p->IsConjunctiveIntCmps());

  // OR children are not conjuncts.
  auto q = Or({Cmp("a", CmpOp::kLt, 5), Cmp("b", CmpOp::kGe, 2)});
  cmps.clear();
  q->CollectConjunctiveIntCmps(&cmps);
  EXPECT_TRUE(cmps.empty());
  EXPECT_FALSE(q->IsConjunctiveIntCmps());

  // A string comparison breaks index coverage.
  auto r = And({Cmp("a", CmpOp::kLt, 5), Cmp("s", CmpOp::kEq, Value("x"))});
  EXPECT_FALSE(r->IsConjunctiveIntCmps());
}

// ----------------------------- Scalar funcs -------------------------------

TEST(ScalarFunctionsTest, ExtractGroup) {
  EXPECT_EQ(ExtractGroup("g123/products/item"), 123);
  EXPECT_EQ(ExtractGroup("g0/x"), 0);
  EXPECT_EQ(ExtractGroup("g42"), 42);
  // Non-conforming values hash deterministically and non-negatively.
  EXPECT_EQ(ExtractGroup("whatever"), ExtractGroup("whatever"));
  EXPECT_GE(ExtractGroup("whatever"), 0);
  EXPECT_GE(ExtractGroup(""), 0);
  EXPECT_GE(ExtractGroup("g12x"), 0);  // digits not followed by '/'
  EXPECT_NE(ExtractGroup("g12x"), 12);
}

TEST(ScalarFunctionsTest, UrlPrefix) {
  EXPECT_EQ(UrlPrefix("http://shop.example.com/cameras/canon?x=1"),
            "shop.example.com/cameras");
  EXPECT_EQ(UrlPrefix("shop.example.com/cameras"), "shop.example.com/cameras");
  EXPECT_EQ(UrlPrefix("example.com"), "example.com");
  EXPECT_EQ(UrlPrefix("https://example.com"), "example.com");
}

TEST(ScalarFunctionsTest, RegionOfIpIsTotalAndStable) {
  EXPECT_EQ(RegionOfIp("10.1.2.3"), RegionOfIp("10.9.9.9"));
  const std::string regions[] = {"East Coast", "West Coast", "Midwest",
                                 "South"};
  bool found = false;
  for (const auto& r : regions) found |= (RegionOfIp("200.0.0.1") == r);
  EXPECT_TRUE(found);
}

TEST(ScalarFunctionsTest, DateCivilRoundTrip) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(DaysFromCivil(1970, 1, 2), 1);
  EXPECT_EQ(DaysFromCivil(2000, 3, 1), DaysFromCivil(2000, 2, 29) + 1);
  for (int32_t days : {0, 1, 365, 10957, 16000, 20000, 50000}) {
    int y, m, d;
    CivilFromDays(days, &y, &m, &d);
    EXPECT_EQ(DaysFromCivil(y, m, d), days);
  }
}

}  // namespace
}  // namespace hybridjoin
