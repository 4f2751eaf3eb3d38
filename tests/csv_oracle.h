#pragma once

/// \file csv_oracle.h
/// \brief The two-pass CSV reader that `ReadCsvFromString` must match byte
/// for byte, kept as the reference of the differential tests.
///
/// It splits every record into owned strings first, then infers each
/// column's type with ParseInt64/ParseDouble over all its fields, then parses
/// every field again to append it. Slow and memory-hungry, but its semantics
/// are the definition: the library reader may differ from it in nothing but
/// speed and memory.

#include <string>
#include <vector>

#include "common/str_util.h"
#include "table/csv.h"

namespace featlib {
namespace csv_oracle {

// Splits one CSV record honoring quotes. `pos` advances past the record.
inline std::vector<std::string> ParseRecord(const std::string& text,
                                            size_t* pos, char delim) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  size_t i = *pos;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delim) {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      ++i;
      break;
    } else if (c == '\r') {
      // swallow; newline handled next iteration
    } else {
      field += c;
    }
  }
  fields.push_back(std::move(field));
  *pos = i;
  return fields;
}

inline Result<Table> ReadCsvFromString(const std::string& text,
                                       const CsvReadOptions& options = {}) {
  std::vector<std::vector<std::string>> records;
  size_t pos = 0;
  while (pos < text.size()) {
    auto rec = ParseRecord(text, &pos, options.delimiter);
    if (rec.size() == 1 && rec[0].empty()) continue;  // blank line
    records.push_back(std::move(rec));
  }
  if (records.empty()) return Status::InvalidArgument("empty CSV input");

  std::vector<std::string> names;
  size_t first_data = 0;
  if (options.has_header) {
    names = records[0];
    first_data = 1;
  } else {
    for (size_t c = 0; c < records[0].size(); ++c) {
      names.push_back(StrFormat("c%zu", c));
    }
  }
  const size_t ncols = names.size();
  for (size_t r = first_data; r < records.size(); ++r) {
    if (records[r].size() != ncols) {
      return Status::InvalidArgument(
          StrFormat("row %zu has %zu fields, expected %zu", r,
                    records[r].size(), ncols));
    }
  }

  // Infer types: int64 unless any field needs double, string as fallback.
  std::vector<DataType> types(ncols, DataType::kInt64);
  for (size_t c = 0; c < ncols; ++c) {
    for (size_t r = first_data; r < records.size(); ++r) {
      const std::string& f = records[r][c];
      if (f.empty()) continue;
      int64_t iv;
      double dv;
      if (ParseInt64(f, &iv)) continue;
      if (ParseDouble(f, &dv)) {
        if (types[c] == DataType::kInt64) types[c] = DataType::kDouble;
        continue;
      }
      types[c] = DataType::kString;
      break;
    }
  }

  Table out;
  for (size_t c = 0; c < ncols; ++c) {
    Column col(types[c]);
    col.Reserve(records.size() - first_data);
    for (size_t r = first_data; r < records.size(); ++r) {
      const std::string& f = records[r][c];
      if (f.empty()) {
        col.AppendNull();
      } else if (types[c] == DataType::kInt64) {
        int64_t iv = 0;
        ParseInt64(f, &iv);
        col.AppendInt(iv);
      } else if (types[c] == DataType::kDouble) {
        double dv = 0.0;
        ParseDouble(f, &dv);
        col.AppendDouble(dv);
      } else {
        col.AppendString(f);
      }
    }
    FEAT_RETURN_NOT_OK(out.AddColumn(names[c], std::move(col)));
  }
  return out;
}

}  // namespace csv_oracle
}  // namespace featlib
