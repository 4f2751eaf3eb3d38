#include "table/column.h"

#include <cmath>
#include <unordered_set>

#include "common/str_util.h"

namespace featlib {

void Column::AppendNull() {
  valid_.push_back(0);
  ++null_count_;
  if (IsIntBacked()) {
    ints_.push_back(0);
  } else if (type_ == DataType::kDouble) {
    doubles_.push_back(0.0);
  } else {
    codes_.push_back(-1);
  }
}

void Column::AppendInt(int64_t v) {
  FEAT_CHECK(IsIntBacked(), "AppendInt on non-int column");
  valid_.push_back(1);
  ints_.push_back(v);
}

void Column::AppendDouble(double v) {
  FEAT_CHECK(type_ == DataType::kDouble, "AppendDouble on non-double column");
  if (std::isnan(v)) {
    AppendNull();
    return;
  }
  valid_.push_back(1);
  doubles_.push_back(v);
}

void Column::AppendString(const std::string& v) {
  FEAT_CHECK(type_ == DataType::kString, "AppendString on non-string column");
  valid_.push_back(1);
  codes_.push_back(GetOrAddCode(v));
}

void Column::AppendCode(int32_t code) {
  FEAT_CHECK(type_ == DataType::kString, "AppendCode on non-string column");
  FEAT_CHECK(code >= 0 && dict_ != nullptr &&
                 code < static_cast<int32_t>(dict_->values.size()),
             "dictionary code out of range");
  valid_.push_back(1);
  codes_.push_back(code);
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDatetime:
    case DataType::kBool:
      if (v.tag() == Value::Tag::kInt) {
        AppendInt(v.int_value());
      } else if (v.tag() == Value::Tag::kDouble) {
        AppendInt(static_cast<int64_t>(v.double_value()));
      } else {
        return Status::InvalidArgument("cannot append string to int column");
      }
      return Status::OK();
    case DataType::kDouble:
      if (v.tag() == Value::Tag::kDouble) {
        AppendDouble(v.double_value());
      } else if (v.tag() == Value::Tag::kInt) {
        AppendDouble(static_cast<double>(v.int_value()));
      } else {
        return Status::InvalidArgument("cannot append string to double column");
      }
      return Status::OK();
    case DataType::kString:
      if (v.tag() == Value::Tag::kString) {
        AppendString(v.string_value());
      } else {
        AppendString(v.ToSqlLiteral());
      }
      return Status::OK();
  }
  return Status::Internal("unreachable column type");
}

void Column::Reserve(size_t n) {
  valid_.reserve(n);
  if (IsIntBacked()) {
    ints_.reserve(n);
  } else if (type_ == DataType::kDouble) {
    doubles_.reserve(n);
  } else {
    codes_.reserve(n);
  }
}

int64_t Column::IntAt(size_t row) const {
  FEAT_CHECK(IsIntBacked(), "IntAt on non-int column");
  return ints_[row];
}

double Column::DoubleAt(size_t row) const {
  FEAT_CHECK(type_ == DataType::kDouble, "DoubleAt on non-double column");
  return doubles_[row];
}

int32_t Column::CodeAt(size_t row) const {
  FEAT_CHECK(type_ == DataType::kString, "CodeAt on non-string column");
  return codes_[row];
}

const std::string& Column::StringAt(size_t row) const {
  FEAT_CHECK(type_ == DataType::kString && dict_ != nullptr,
             "StringAt on non-string column");
  return dict_->values[static_cast<size_t>(codes_[row])];
}

Value Column::ValueAt(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDatetime:
    case DataType::kBool:
      return Value::Int(ints_[row]);
    case DataType::kDouble:
      return Value::Double(doubles_[row]);
    case DataType::kString:
      return Value::Str(StringAt(row));
  }
  return Value::Null();
}

double Column::AsDouble(size_t row) const {
  if (IsNull(row)) return std::nan("");
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDatetime:
    case DataType::kBool:
      return static_cast<double>(ints_[row]);
    case DataType::kDouble:
      return doubles_[row];
    case DataType::kString:
      return static_cast<double>(codes_[row]);
  }
  return std::nan("");
}

Column::Dictionary* Column::MutableDictionary() {
  if (dict_ == nullptr) {
    dict_ = std::make_shared<Dictionary>();
  } else if (dict_.use_count() > 1) {
    // Copy-on-write: another column shares this dictionary (e.g. via
    // Take); clone before mutating so siblings never see the append.
    dict_ = std::make_shared<Dictionary>(*dict_);
  }
  return dict_.get();
}

int32_t Column::GetOrAddCode(const std::string& s) {
  return GetOrAddCode(std::string_view(s));
}

int32_t Column::GetOrAddCode(std::string_view s) {
  if (dict_ != nullptr) {
    auto it = dict_->index.find(s);
    if (it != dict_->index.end()) return it->second;
  }
  Dictionary* dict = MutableDictionary();
  const int32_t code = static_cast<int32_t>(dict->values.size());
  dict->values.emplace_back(s);
  dict->index.emplace(dict->values.back(), code);
  return code;
}

int32_t Column::FindCode(const std::string& s) const {
  if (dict_ == nullptr) return -1;
  auto it = dict_->index.find(s);
  return it == dict_->index.end() ? -1 : it->second;
}

Result<std::pair<double, double>> Column::MinMaxAsDouble() const {
  if (type_ == DataType::kString) {
    return Status::InvalidArgument("MinMaxAsDouble on string column");
  }
  bool seen = false;
  double lo = 0.0;
  double hi = 0.0;
  for (size_t i = 0; i < size(); ++i) {
    if (IsNull(i)) continue;
    const double v = AsDouble(i);
    if (!seen) {
      lo = hi = v;
      seen = true;
    } else {
      if (v < lo) lo = v;
      if (v > hi) hi = v;
    }
  }
  if (!seen) return Status::InvalidArgument("MinMaxAsDouble on empty/all-null column");
  return std::make_pair(lo, hi);
}

size_t Column::CountDistinct() const {
  if (type_ == DataType::kString) {
    std::unordered_set<int32_t> seen;
    for (size_t i = 0; i < size(); ++i) {
      if (!IsNull(i)) seen.insert(codes_[i]);
    }
    return seen.size();
  }
  std::unordered_set<double> seen;
  for (size_t i = 0; i < size(); ++i) {
    if (!IsNull(i)) seen.insert(AsDouble(i));
  }
  return seen.size();
}

Column Column::Take(const std::vector<uint32_t>& indices) const {
  Column out(type_);
  out.Reserve(indices.size());
  // O(1): the dictionary is shared, not copied — Take on a string column
  // used to deep-copy every dictionary string per call (hot in
  // ExecuteAggQuery's key-column gather). Copy-on-write in GetOrAddCode
  // keeps later appends to either column private.
  out.dict_ = dict_;
  for (uint32_t idx : indices) {
    FEAT_CHECK(idx < size(), "Take index out of range");
    if (IsNull(idx)) {
      out.AppendNull();
    } else if (IsIntBacked()) {
      out.AppendInt(ints_[idx]);
    } else if (type_ == DataType::kDouble) {
      out.AppendDouble(doubles_[idx]);
    } else {
      out.valid_.push_back(1);
      out.codes_.push_back(codes_[idx]);
    }
  }
  return out;
}

Column Column::FromInts(DataType type, const std::vector<int64_t>& values) {
  Column out(type);
  out.Reserve(values.size());
  for (int64_t v : values) out.AppendInt(v);
  return out;
}

Column Column::FromDoubles(const std::vector<double>& values) {
  Column out(DataType::kDouble);
  out.Reserve(values.size());
  for (double v : values) out.AppendDouble(v);
  return out;
}

Column Column::FromStrings(const std::vector<std::string>& values) {
  Column out(DataType::kString);
  out.Reserve(values.size());
  for (const auto& v : values) out.AppendString(v);
  return out;
}

}  // namespace featlib
