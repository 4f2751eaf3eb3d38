#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>

#include "table/table.h"

namespace featlib {
namespace {

TEST(ValueTest, TagsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(3).int_value(), 3);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::Str("hi").string_value(), "hi");
  EXPECT_EQ(Value::Bool(true).int_value(), 1);
}

TEST(ValueTest, AsDouble) {
  EXPECT_DOUBLE_EQ(Value::Int(3).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).AsDouble(), 1.5);
  EXPECT_TRUE(std::isnan(Value::Null().AsDouble()));
  EXPECT_TRUE(std::isnan(Value::Str("x").AsDouble()));
}

TEST(ValueTest, SqlLiteral) {
  EXPECT_EQ(Value::Null().ToSqlLiteral(), "NULL");
  EXPECT_EQ(Value::Int(-7).ToSqlLiteral(), "-7");
  EXPECT_EQ(Value::Str("a").ToSqlLiteral(), "'a'");
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_FALSE(Value::Int(1) == Value::Double(1.0));
  EXPECT_EQ(Value::Str("x"), Value::Str("x"));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(DataTypeTest, RangeTypes) {
  EXPECT_TRUE(IsRangeType(DataType::kInt64));
  EXPECT_TRUE(IsRangeType(DataType::kDouble));
  EXPECT_TRUE(IsRangeType(DataType::kDatetime));
  EXPECT_FALSE(IsRangeType(DataType::kString));
  EXPECT_FALSE(IsRangeType(DataType::kBool));
}

TEST(ColumnTest, IntAppendAndAccess) {
  Column col(DataType::kInt64);
  col.AppendInt(1);
  col.AppendNull();
  col.AppendInt(-5);
  EXPECT_EQ(col.size(), 3u);
  EXPECT_EQ(col.null_count(), 1u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.IntAt(2), -5);
  EXPECT_TRUE(std::isnan(col.AsDouble(1)));
  EXPECT_DOUBLE_EQ(col.AsDouble(2), -5.0);
}

TEST(ColumnTest, DoubleNanBecomesNull) {
  Column col(DataType::kDouble);
  col.AppendDouble(1.0);
  col.AppendDouble(std::nan(""));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.null_count(), 1u);
}

TEST(ColumnTest, StringDictionaryEncoding) {
  Column col(DataType::kString);
  col.AppendString("a");
  col.AppendString("b");
  col.AppendString("a");
  EXPECT_EQ(col.dictionary().size(), 2u);
  EXPECT_EQ(col.CodeAt(0), col.CodeAt(2));
  EXPECT_NE(col.CodeAt(0), col.CodeAt(1));
  EXPECT_EQ(col.StringAt(1), "b");
  EXPECT_EQ(col.FindCode("a"), col.CodeAt(0));
  EXPECT_EQ(col.FindCode("zzz"), -1);
}

TEST(ColumnTest, TakeSharesDictionaryCopyOnWrite) {
  Column col(DataType::kString);
  col.AppendString("a");
  col.AppendString("b");
  col.AppendString("a");

  // Take is O(1) on the dictionary: the taken column shares storage
  // instead of deep-copying every string (the old hot-path cost).
  Column taken = col.Take({2u, 1u});
  EXPECT_TRUE(taken.SharesDictionaryWith(col));
  EXPECT_EQ(taken.StringAt(0), "a");
  EXPECT_EQ(taken.StringAt(1), "b");
  EXPECT_EQ(taken.CodeAt(0), col.CodeAt(2));

  // Appending an already-known string needs no mutation: still shared.
  taken.AppendString("b");
  EXPECT_TRUE(taken.SharesDictionaryWith(col));

  // A new string clones the shared dictionary (copy-on-write): the
  // sibling's dictionary is unaffected, codes stay consistent.
  taken.AppendString("zz");
  EXPECT_FALSE(taken.SharesDictionaryWith(col));
  EXPECT_EQ(taken.dictionary().size(), 3u);
  EXPECT_EQ(col.dictionary().size(), 2u);
  EXPECT_EQ(col.FindCode("zz"), -1);
  EXPECT_EQ(taken.StringAt(3), "zz");
  EXPECT_EQ(taken.StringAt(0), "a");

  // And mutating the original never leaks into the (now detached) copy.
  col.AppendString("yy");
  EXPECT_EQ(taken.FindCode("yy"), -1);
}

TEST(ColumnTest, StringViewGetOrAddCodeIsCopyOnWrite) {
  Column col(DataType::kString);
  col.AppendString("a");
  col.AppendString("b");
  Column taken = col.Take({1u, 0u});
  ASSERT_TRUE(taken.SharesDictionaryWith(col));

  // A known value through the view overload: same code, nothing cloned.
  const std::string buffer = "a,b,new";
  EXPECT_EQ(taken.GetOrAddCode(std::string_view(buffer).substr(2, 1)),
            col.GetOrAddCode(std::string("b")));
  EXPECT_TRUE(taken.SharesDictionaryWith(col));

  // A new value clones the shared dictionary before inserting: the sibling
  // never sees it, and the view overload hands out the code the std::string
  // overload then finds.
  const int32_t code = taken.GetOrAddCode(std::string_view(buffer).substr(4));
  EXPECT_FALSE(taken.SharesDictionaryWith(col));
  EXPECT_EQ(code, 2);
  EXPECT_EQ(taken.GetOrAddCode(std::string("new")), code);
  EXPECT_EQ(taken.dictionary().back(), "new");
  EXPECT_EQ(col.FindCode("new"), -1);
  EXPECT_EQ(col.dictionary().size(), 2u);

  // In an unshared column both overloads assign the same codes in order.
  Column by_view(DataType::kString);
  Column by_string(DataType::kString);
  for (const char* s : {"x", "y", "x", "z", "y"}) {
    EXPECT_EQ(by_view.GetOrAddCode(std::string_view(s)),
              by_string.GetOrAddCode(std::string(s)));
  }
  EXPECT_EQ(by_view.dictionary(), by_string.dictionary());
}

TEST(ColumnTest, ValueAtRoundTrip) {
  Column col(DataType::kString);
  col.AppendString("x");
  col.AppendNull();
  EXPECT_EQ(col.ValueAt(0), Value::Str("x"));
  EXPECT_TRUE(col.ValueAt(1).is_null());
}

TEST(ColumnTest, AppendValueDispatch) {
  Column ints(DataType::kInt64);
  EXPECT_TRUE(ints.AppendValue(Value::Int(2)).ok());
  EXPECT_TRUE(ints.AppendValue(Value::Double(3.7)).ok());
  EXPECT_EQ(ints.IntAt(1), 3);
  EXPECT_FALSE(ints.AppendValue(Value::Str("no")).ok());

  Column strs(DataType::kString);
  EXPECT_TRUE(strs.AppendValue(Value::Str("ok")).ok());
  EXPECT_TRUE(strs.AppendValue(Value::Null()).ok());
  EXPECT_EQ(strs.null_count(), 1u);
}

TEST(ColumnTest, MinMaxAsDouble) {
  Column col(DataType::kDouble);
  col.AppendDouble(3.0);
  col.AppendNull();
  col.AppendDouble(-1.0);
  auto mm = col.MinMaxAsDouble();
  ASSERT_TRUE(mm.ok());
  EXPECT_DOUBLE_EQ(mm.value().first, -1.0);
  EXPECT_DOUBLE_EQ(mm.value().second, 3.0);
}

TEST(ColumnTest, MinMaxErrors) {
  Column empty(DataType::kInt64);
  EXPECT_FALSE(empty.MinMaxAsDouble().ok());
  Column strs(DataType::kString);
  strs.AppendString("a");
  EXPECT_FALSE(strs.MinMaxAsDouble().ok());
  Column all_null(DataType::kDouble);
  all_null.AppendNull();
  EXPECT_FALSE(all_null.MinMaxAsDouble().ok());
}

TEST(ColumnTest, CountDistinct) {
  Column col(DataType::kInt64);
  for (int64_t v : {1, 2, 2, 3, 1}) col.AppendInt(v);
  col.AppendNull();
  EXPECT_EQ(col.CountDistinct(), 3u);

  Column strs(DataType::kString);
  strs.AppendString("a");
  strs.AppendString("b");
  strs.AppendString("a");
  EXPECT_EQ(strs.CountDistinct(), 2u);
}

TEST(ColumnTest, TakePreservesValuesAndNulls) {
  Column col(DataType::kString);
  col.AppendString("x");
  col.AppendNull();
  col.AppendString("y");
  Column taken = col.Take({2, 0, 1});
  EXPECT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken.StringAt(0), "y");
  EXPECT_EQ(taken.StringAt(1), "x");
  EXPECT_TRUE(taken.IsNull(2));
  // Dictionary is shared by copy.
  EXPECT_EQ(taken.FindCode("x"), col.FindCode("x"));
}

TEST(ColumnTest, Factories) {
  auto ints = Column::FromInts(DataType::kDatetime, {10, 20});
  EXPECT_EQ(ints.type(), DataType::kDatetime);
  EXPECT_EQ(ints.IntAt(1), 20);
  auto dbls = Column::FromDoubles({1.5});
  EXPECT_DOUBLE_EQ(dbls.DoubleAt(0), 1.5);
  auto strs = Column::FromStrings({"p", "q"});
  EXPECT_EQ(strs.StringAt(0), "p");
}

Table MakeToyTable() {
  Table t;
  EXPECT_TRUE(t.AddColumn("id", Column::FromInts(DataType::kInt64, {1, 2, 3})).ok());
  EXPECT_TRUE(t.AddColumn("v", Column::FromDoubles({0.1, 0.2, 0.3})).ok());
  EXPECT_TRUE(t.AddColumn("s", Column::FromStrings({"a", "b", "c"})).ok());
  return t;
}

TEST(TableTest, BasicShape) {
  Table t = MakeToyTable();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_TRUE(t.HasColumn("v"));
  EXPECT_FALSE(t.HasColumn("nope"));
  EXPECT_EQ(t.NameAt(2), "s");
}

TEST(TableTest, DuplicateColumnRejected) {
  Table t = MakeToyTable();
  EXPECT_FALSE(t.AddColumn("id", Column::FromInts(DataType::kInt64, {1, 2, 3})).ok());
}

TEST(TableTest, SizeMismatchRejected) {
  Table t = MakeToyTable();
  EXPECT_FALSE(t.AddColumn("bad", Column::FromDoubles({1.0})).ok());
}

TEST(TableTest, GetColumnAndIndex) {
  Table t = MakeToyTable();
  auto col = t.GetColumn("v");
  ASSERT_TRUE(col.ok());
  EXPECT_DOUBLE_EQ(col.value()->DoubleAt(1), 0.2);
  EXPECT_FALSE(t.GetColumn("missing").ok());
  EXPECT_EQ(t.ColumnIndex("s").value(), 2u);
}

TEST(TableTest, SelectProjectsInOrder) {
  Table t = MakeToyTable();
  auto sel = t.Select({"s", "id"});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel.value().num_columns(), 2u);
  EXPECT_EQ(sel.value().NameAt(0), "s");
  EXPECT_FALSE(t.Select({"nope"}).ok());
}

TEST(TableTest, TakeAndHead) {
  Table t = MakeToyTable();
  Table taken = t.Take({2, 0});
  EXPECT_EQ(taken.num_rows(), 2u);
  EXPECT_EQ(taken.ColumnAt(0).IntAt(0), 3);
  Table head = t.Head(2);
  EXPECT_EQ(head.num_rows(), 2u);
  EXPECT_EQ(t.Head(99).num_rows(), 3u);
}

TEST(TableTest, ReplaceAndDrop) {
  Table t = MakeToyTable();
  EXPECT_TRUE(t.ReplaceColumn("v", Column::FromDoubles({9.0, 8.0, 7.0})).ok());
  EXPECT_DOUBLE_EQ(t.GetColumn("v").value()->DoubleAt(0), 9.0);
  EXPECT_FALSE(t.ReplaceColumn("zz", Column::FromDoubles({1, 2, 3})).ok());
  EXPECT_TRUE(t.DropColumn("v").ok());
  EXPECT_FALSE(t.HasColumn("v"));
  EXPECT_EQ(t.num_columns(), 2u);
  // Index remap still works after drop.
  EXPECT_EQ(t.ColumnIndex("s").value(), 1u);
  EXPECT_FALSE(t.DropColumn("v").ok());
}

TEST(TableTest, ToStringRenders) {
  Table t = MakeToyTable();
  const std::string s = t.ToString(2);
  EXPECT_NE(s.find("id"), std::string::npos);
  EXPECT_NE(s.find("'a'"), std::string::npos);
  EXPECT_NE(s.find("3 rows total"), std::string::npos);
}

}  // namespace
}  // namespace featlib
