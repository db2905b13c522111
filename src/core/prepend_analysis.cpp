#include "core/prepend_analysis.h"

#include <unordered_map>

namespace re::core {

std::string to_string(PrependClass c) {
  switch (c) {
    case PrependClass::kEqual: return "R=C";
    case PrependClass::kMoreToComm: return "R<C";
    case PrependClass::kMoreToRe: return "R>C";
    case PrependClass::kNoCommodity: return "no commodity";
  }
  return "?";
}

std::size_t Table4::cell(PrependClass c, Inference i) const {
  const auto row = cells.find(c);
  if (row == cells.end()) return 0;
  const auto it = row->second.find(i);
  return it == row->second.end() ? 0 : it->second;
}

double Table4::share(PrependClass c, Inference i) const {
  const auto total = totals.find(c);
  if (total == totals.end() || total->second == 0) return 0.0;
  return static_cast<double>(cell(c, i)) / static_cast<double>(total->second);
}

PrependClass classify_prepending(const OriginRibView& view) {
  if (!view.comm_prepends.has_value()) return PrependClass::kNoCommodity;
  const std::uint32_t re = view.re_prepends.value_or(0);
  const std::uint32_t comm = *view.comm_prepends;
  if (re == comm) return PrependClass::kEqual;
  return re < comm ? PrependClass::kMoreToComm : PrependClass::kMoreToRe;
}

Table4 build_table4(const std::vector<PrefixInference>& inferences,
                    const RibSurveyResult& survey) {
  Table4 table;
  std::unordered_map<std::uint32_t, const OriginRibView*> views;
  for (const OriginRibView& view : survey.origins) {
    views[view.origin.value()] = &view;
  }
  for (const PrefixInference& p : inferences) {
    switch (p.inference) {
      case Inference::kAlwaysRe:
      case Inference::kAlwaysCommodity:
      case Inference::kSwitchToRe:
      case Inference::kMixed:
        break;
      default:
        continue;  // loss / oscillating / switch-to-commodity not tabulated
    }
    const auto view = views.find(p.origin.value());
    if (view == views.end()) continue;
    const PrependClass cls = classify_prepending(*view->second);
    ++table.cells[cls][p.inference];
    ++table.totals[cls];
  }
  return table;
}

}  // namespace re::core
