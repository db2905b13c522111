#include "analysis/csv.h"

#include <cstdio>

namespace re::analysis {

CsvWriter::CsvWriter(std::vector<std::string> header)
    : columns_(header.size()) {
  emit(header);
}

std::string CsvWriter::escape(const std::string& cell) {
  const bool needs_quotes = cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::emit(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < columns_; ++i) {
    if (i > 0) out_ += ',';
    if (i < cells.size()) out_ += escape(cells[i]);
  }
  out_ += '\n';
}

void CsvWriter::add_row(std::vector<std::string> cells) {
  emit(cells);
  ++row_count_;
}

bool CsvWriter::write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fwrite(out_.data(), 1, out_.size(), file) == out_.size();
  std::fclose(file);
  return ok;
}

std::string table1_csv(const core::Table1& table) {
  CsvWriter csv({"inference", "prefixes", "prefix_share", "ases"});
  for (const auto& [inference, cell] : table.cells) {
    csv.add_row({to_string(inference), std::to_string(cell.prefixes),
                 std::to_string(table.prefix_share(inference)),
                 std::to_string(cell.ases)});
  }
  return csv.str();
}

std::string figure5_csv(const core::Figure5& figure) {
  CsvWriter csv({"panel", "region", "ases", "via_re", "share"});
  for (const core::RegionShare& r : figure.europe) {
    csv.add_row({"europe", r.region, std::to_string(r.ases),
                 std::to_string(r.via_re), std::to_string(r.share())});
  }
  for (const core::RegionShare& r : figure.us_states) {
    csv.add_row({"us", r.region, std::to_string(r.ases),
                 std::to_string(r.via_re), std::to_string(r.share())});
  }
  return csv.str();
}

std::string switch_cdf_csv(const core::SwitchCdf& cdf) {
  CsvWriter csv({"config", "peer_nren_cdf", "participant_cdf"});
  for (std::size_t i = 0; i < cdf.config_labels.size(); ++i) {
    csv.add_row({cdf.config_labels[i],
                 std::to_string(i < cdf.peer_nren.size() ? cdf.peer_nren[i] : 0.0),
                 std::to_string(
                     i < cdf.participant.size() ? cdf.participant[i] : 0.0)});
  }
  return csv.str();
}

std::string inferences_csv(
    const std::vector<core::PrefixInference>& inferences) {
  CsvWriter csv({"prefix", "origin", "side", "inference", "first_re_round"});
  for (const core::PrefixInference& p : inferences) {
    csv.add_row({p.prefix.to_string(), std::to_string(p.origin.value()),
                 to_string(p.side), to_string(p.inference),
                 p.first_re_round ? std::to_string(*p.first_re_round) : ""});
  }
  return csv.str();
}

}  // namespace re::analysis
