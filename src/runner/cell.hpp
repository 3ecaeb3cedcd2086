// The row buffer a cell body writes into.
//
// A fluent row()/add() interface like util::Table's, but every value is
// kept as a (console text, CSV text) pair in memory instead of streaming
// to disk: the sweep layer flushes a cell's rows and journals the cell as
// one atomic unit, which is what makes interrupted shards resumable
// without duplicated or torn rows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cobra::runner {

/// One table cell, formatted for both output channels (the console shows
/// per-column decimals, the CSV archives six).
struct CellValue {
  std::string console_text;  ///< rendering in the console table
  std::string csv_text;      ///< rendering in the CSV archive
};

/// One buffered table row.
using CellRow = std::vector<CellValue>;

/// The row buffer a registered cell body writes its results into.
class CellContext {
 public:
  /// Buffers for `num_tables` tables (the experiment's TableDef count).
  explicit CellContext(std::size_t num_tables);

  /// Targets subsequent row()/add() calls at table `index` (default 0).
  CellContext& table(std::size_t index);

  /// Starts a new row in the current table.
  CellContext& row();
  /// Appends one cell to the open row (string form).
  CellContext& add(const std::string& cell);
  /// Appends one cell to the open row (C-string form).
  CellContext& add(const char* cell);
  /// Appends a double, shown with `decimals` places on the console.
  CellContext& add(double value, int decimals = 3);
  /// Appends a signed integer cell.
  CellContext& add(std::int64_t value);
  /// Appends an unsigned integer cell.
  CellContext& add(std::uint64_t value);
  /// Appends an int cell.
  CellContext& add(int value) { return add(static_cast<std::int64_t>(value)); }

  /// Cell-local observation (e.g. "3 timeouts!"); printed with the cell's
  /// progress line and, on unsharded runs, under the table.
  void note(const std::string& text);

  /// All buffered rows, indexed [table][row][cell].
  [[nodiscard]] const std::vector<std::vector<CellRow>>& tables() const {
    return tables_;
  }
  /// Notes recorded by the cell body, in order.
  [[nodiscard]] const std::vector<std::string>& notes() const {
    return notes_;
  }

  /// Rows buffered for table `index`.
  [[nodiscard]] std::size_t rows_in_table(std::size_t index) const {
    return tables_[index].size();
  }

 private:
  std::vector<std::vector<CellRow>> tables_;  // [table][row][cell]
  std::vector<std::string> notes_;
  std::size_t current_table_ = 0;
  bool row_open_ = false;
};

}  // namespace cobra::runner
