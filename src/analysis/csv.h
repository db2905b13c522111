// CSV export of reproduced tables and figure series, for external
// plotting (the shapes in the paper's figures are line/CDF/choropleth
// plots; these writers emit the underlying series).
#pragma once

#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/route_selection.h"
#include "core/switch_cdf.h"

namespace re::analysis {

// A minimal CSV writer with RFC 4180 quoting.
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  std::size_t rows() const noexcept { return row_count_; }

  const std::string& str() const noexcept { return out_; }
  // Writes to `path`; false on IO failure.
  bool write(const std::string& path) const;

  static std::string escape(const std::string& cell);

 private:
  void emit(const std::vector<std::string>& cells);
  std::string out_;
  std::size_t columns_ = 0;
  std::size_t row_count_ = 0;
};

// Per-category counts of a Table 1 summary.
std::string table1_csv(const core::Table1& table);

// One row per region of a Figure 5 aggregation (both panels).
std::string figure5_csv(const core::Figure5& figure);

// The Figure 8 CDF series: config label, peer-nren, participant.
std::string switch_cdf_csv(const core::SwitchCdf& cdf);

// Raw per-prefix inferences (prefix, origin, side, inference, switch round).
std::string inferences_csv(const std::vector<core::PrefixInference>& inferences);

}  // namespace re::analysis
