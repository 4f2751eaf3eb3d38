#pragma once

/// \file column.h
/// \brief Nullable, typed columnar storage with dictionary-encoded strings.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "table/value.h"

namespace featlib {

/// \brief A single nullable column.
///
/// Storage layout by type:
///  - kInt64 / kDatetime / kBool : vector<int64_t>
///  - kDouble                    : vector<double>
///  - kString                    : vector<int32_t> codes + shared dictionary
/// Validity is a per-row byte vector (favoring simplicity over bit packing;
/// the engine's workloads are algorithm-bound, not memory-bound).
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return valid_.size(); }
  size_t null_count() const { return null_count_; }
  bool IsNull(size_t row) const { return valid_[row] == 0; }

  /// \name Appending
  /// @{
  void AppendNull();
  /// Appends to an int-backed column (kInt64/kDatetime/kBool).
  void AppendInt(int64_t v);
  /// Appends to a kDouble column.
  void AppendDouble(double v);
  /// Appends to a kString column; dictionary-encodes the value.
  void AppendString(const std::string& v);
  /// Appends a dictionary code directly (must be valid for this column).
  void AppendCode(int32_t code);
  /// Type-dispatched append from a dynamic Value (used by CSV and builders).
  Status AppendValue(const Value& v);
  void Reserve(size_t n);
  /// @}

  /// \name Row access (row must be non-null unless stated otherwise)
  /// @{
  int64_t IntAt(size_t row) const;
  double DoubleAt(size_t row) const;
  int32_t CodeAt(size_t row) const;
  const std::string& StringAt(size_t row) const;
  /// Dynamic cell access; returns Value::Null() for null rows.
  Value ValueAt(size_t row) const;
  /// Numeric view used by ML/stats: ints and doubles convert, strings map to
  /// their dictionary code, nulls are NaN.
  double AsDouble(size_t row) const;
  /// @}

  /// \name Dictionary (kString only)
  ///
  /// The dictionary (values + reverse index) lives behind a shared_ptr:
  /// copying a column — and Take(), which used to deep-copy the whole
  /// dictionary per call on the ExecuteAggQuery hot path — shares it in
  /// O(1). Mutation (GetOrAddCode via AppendString) is copy-on-write: a
  /// column whose dictionary is shared clones it before inserting, so
  /// sibling columns never observe each other's appends. Sharing is not
  /// synchronized — concurrent readers are fine, but mutation requires the
  /// column (not just the dictionary) to be exclusively owned by the
  /// writing thread, which matches the engine's single-writer table
  /// construction.
  /// @{
  const std::vector<std::string>& dictionary() const {
    static const std::vector<std::string> kEmpty;
    return dict_ == nullptr ? kEmpty : dict_->values;
  }
  /// Returns the code for `s`, inserting it if absent.
  int32_t GetOrAddCode(const std::string& s);
  /// Same, looked up without building a std::string (the CSV reader's
  /// fields are views into its input buffer); copies `s` only on insert.
  int32_t GetOrAddCode(std::string_view s);
  /// Returns the code for `s`, or -1 if `s` is not in the dictionary.
  int32_t FindCode(const std::string& s) const;
  /// True when this column shares its dictionary storage with `other`
  /// (introspection for tests pinning the O(1) Take behavior).
  bool SharesDictionaryWith(const Column& other) const {
    return dict_ != nullptr && dict_ == other.dict_;
  }
  /// @}

  /// \name Raw storage views (vectorized kernel backend)
  ///
  /// Direct pointers into the typed backing arrays so the SIMD predicate
  /// evaluator can stream whole cache lines instead of calling the per-row
  /// accessors. Each pointer is meaningful only for the matching type()
  /// (see the storage-layout table above); cells whose validity byte is 0
  /// hold unspecified placeholder values and must be masked out by the
  /// reader, exactly as IsNull() gates the scalar accessors.
  /// @{
  const uint8_t* raw_validity() const { return valid_.data(); }
  const double* raw_doubles() const { return doubles_.data(); }
  const int64_t* raw_ints() const { return ints_.data(); }
  const int32_t* raw_codes() const { return codes_.data(); }
  /// @}

  /// Min/max over non-null rows as doubles. Error if the column is empty,
  /// all-null, or a string column.
  Result<std::pair<double, double>> MinMaxAsDouble() const;

  /// Number of distinct non-null values (exact; hashes the numeric view).
  size_t CountDistinct() const;

  /// Gathers the given rows into a new column (dictionary shared by copy).
  Column Take(const std::vector<uint32_t>& indices) const;

  /// Builds an all-valid int column.
  static Column FromInts(DataType type, const std::vector<int64_t>& values);
  /// Builds a double column; NaN values map to null (AppendDouble rule).
  static Column FromDoubles(const std::vector<double>& values);
  /// Builds an all-valid string column.
  static Column FromStrings(const std::vector<std::string>& values);

 private:
  /// Dictionary storage shared across columns (values + reverse index move
  /// together; they are always mutated as a pair).
  struct Dictionary {
    /// Transparent hash: lets `index` be probed with a string_view.
    struct Hash {
      using is_transparent = void;
      size_t operator()(std::string_view s) const {
        return std::hash<std::string_view>{}(s);
      }
    };
    std::vector<std::string> values;
    std::unordered_map<std::string, int32_t, Hash, std::equal_to<>> index;
  };

  bool IsIntBacked() const {
    return type_ == DataType::kInt64 || type_ == DataType::kDatetime ||
           type_ == DataType::kBool;
  }

  /// Returns a dictionary this column may mutate: creates one if absent,
  /// clones the shared one if another column also points at it.
  Dictionary* MutableDictionary();

  DataType type_;
  std::vector<uint8_t> valid_;
  size_t null_count_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<int32_t> codes_;
  std::shared_ptr<Dictionary> dict_;  // null until first string appended
};

}  // namespace featlib
