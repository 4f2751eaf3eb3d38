#pragma once

/// \file csv.h
/// \brief Minimal CSV reader/writer with type inference.
///
/// Supports quoted fields with embedded delimiters, newlines and doubled
/// quotes. Type inference promotes int64 -> double -> string per column;
/// empty fields are nulls and blank lines are skipped.
///
/// The reader makes one pass over the text, appending each field straight
/// into its column. A field's type and value are exactly what strtoll and
/// strtod give in the "C" locale: a column stays int64 while every non-empty
/// field parses fully as an int64, becomes double while every field parses
/// fully as a finite double without range error, and is a string column
/// otherwise. Leading whitespace, a '+' sign and hex floats are therefore
/// numbers; "inf", "nan", "1e400" and "1e-310" are strings. Nothing in the
/// library calls setlocale, so the "C" locale is the one in effect. Any
/// input, including malformed quoting, yields a Table or a typed Status.

#include <string>

#include "common/status.h"
#include "table/table.h"

namespace featlib {

struct CsvReadOptions {
  char delimiter = ',';
  /// When true, the first row provides column names; otherwise columns are
  /// named c0, c1, ...
  bool has_header = true;
};

/// Reads a CSV file into a Table, inferring per-column types. Returns
/// kIOError when the path cannot be opened, is not a regular file, or its
/// read fails or comes up short.
Result<Table> ReadCsv(const std::string& path, const CsvReadOptions& options = {});

/// Parses CSV text (same semantics as ReadCsv).
Result<Table> ReadCsvFromString(const std::string& text,
                                const CsvReadOptions& options = {});

/// Writes a table as RFC-4180-ish CSV (header row, quoted when needed).
Status WriteCsv(const Table& table, const std::string& path);

/// Serializes a table to CSV text.
std::string WriteCsvToString(const Table& table);

}  // namespace featlib
