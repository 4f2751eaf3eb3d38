#include "query/predicate.h"

#include <cmath>

#include "common/str_util.h"

namespace featlib {

Predicate Predicate::Equals(std::string attr, Value value) {
  Predicate p;
  p.attr = std::move(attr);
  p.kind = Kind::kEquals;
  p.equals_value = std::move(value);
  return p;
}

Predicate Predicate::Range(std::string attr, std::optional<double> lo,
                           std::optional<double> hi) {
  Predicate p;
  p.attr = std::move(attr);
  p.kind = Kind::kRange;
  if (lo.has_value()) {
    p.has_lo = true;
    p.lo = *lo;
  }
  if (hi.has_value()) {
    p.has_hi = true;
    p.hi = *hi;
  }
  return p;
}

std::string Predicate::ToSql(DataType attr_type) const {
  if (kind == Kind::kEquals) {
    return attr + " = " + equals_value.ToSqlLiteral();
  }
  auto render = [&](double v) {
    // Integer columns print integer bounds, but only in int64 range:
    // llround of a bound outside it has no defined value (-2^63 on x86).
    const bool in_int64 = v >= -0x1p63 && v < 0x1p63;
    if (in_int64 &&
        (attr_type == DataType::kInt64 || attr_type == DataType::kDatetime)) {
      return StrFormat("%lld", static_cast<long long>(std::llround(v)));
    }
    return StrFormat("%g", v);
  };
  if (has_lo && has_hi) {
    return attr + " BETWEEN " + render(lo) + " AND " + render(hi);
  }
  if (has_lo) return attr + " >= " + render(lo);
  if (has_hi) return attr + " <= " + render(hi);
  return "TRUE";
}

std::string Predicate::CacheKey() const {
  std::string out = attr;
  if (kind == Kind::kEquals) {
    out += "=" + equals_value.ToSqlLiteral();
  } else {
    out += StrFormat("[%s,%s]", has_lo ? StrFormat("%.9g", lo).c_str() : "-inf",
                     has_hi ? StrFormat("%.9g", hi).c_str() : "+inf");
  }
  return out;
}

Result<CompiledFilter> CompiledFilter::Compile(
    const std::vector<Predicate>& predicates, const Table& table) {
  CompiledFilter out;
  out.num_rows_ = table.num_rows();
  for (const Predicate& p : predicates) {
    if (p.IsTrivial()) continue;
    FEAT_ASSIGN_OR_RETURN(const Column* col, table.GetColumn(p.attr));
    BoundPredicate b;
    b.column = col;
    b.kind = p.kind;
    if (p.kind == Predicate::Kind::kEquals) {
      if (col->type() == DataType::kString) {
        b.is_string = true;
        if (p.equals_value.tag() != Value::Tag::kString) {
          return Status::InvalidArgument(
              "equality predicate on string column needs a string operand: " +
              p.attr);
        }
        b.code = col->FindCode(p.equals_value.string_value());
      } else {
        const double v = p.equals_value.AsDouble();
        if (std::isnan(v)) {
          return Status::InvalidArgument(
              "equality predicate operand is not numeric for " + p.attr);
        }
        b.equals_numeric = v;
      }
    } else {
      if (col->type() == DataType::kString) {
        return Status::InvalidArgument("range predicate on string column " +
                                       p.attr);
      }
      b.has_lo = p.has_lo;
      b.has_hi = p.has_hi;
      b.lo = p.lo;
      b.hi = p.hi;
      if (b.has_lo && b.has_hi && b.lo > b.hi) {
        return Status::InvalidArgument("range predicate with lo > hi on " +
                                       p.attr);
      }
    }
    out.bound_.push_back(b);
  }
  return out;
}

bool CompiledFilter::Matches(size_t row) const {
  for (const BoundPredicate& b : bound_) {
    if (b.column->IsNull(row)) return false;
    if (b.kind == Predicate::Kind::kEquals) {
      if (b.is_string) {
        if (b.code < 0 || b.column->CodeAt(row) != b.code) return false;
      } else {
        if (b.column->AsDouble(row) != b.equals_numeric) return false;
      }
    } else {
      const double v = b.column->AsDouble(row);
      if (b.has_lo && v < b.lo) return false;
      if (b.has_hi && v > b.hi) return false;
    }
  }
  return true;
}

std::vector<uint32_t> CompiledFilter::Apply() const {
  std::vector<uint32_t> out;
  out.reserve(num_rows_ / 4);
  for (size_t i = 0; i < num_rows_; ++i) {
    if (Matches(i)) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

}  // namespace featlib
