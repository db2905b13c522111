// Figure 5 reproduction: share of R&E-connected ASes per European country
// and U.S. state that an equal-localpref vantage (RIPE) reaches over R&E.
#include <cstdio>

#include "analysis/report.h"
#include "bench/world.h"
#include "core/rib_survey.h"
#include "core/route_selection.h"

int main() {
  using namespace re;
  const bench::World world = bench::make_world();

  std::printf("[survey] propagating one representative prefix per origin "
              "(tens of seconds at full scale)...\n");
  const core::RibSurveyResult survey = core::run_rib_survey(world.ecosystem);
  const core::Figure5 fig = core::build_figure5(world.ecosystem, survey, 4);
  std::printf("\nFigure 5 — RIPE's selected routes toward R&E prefixes\n\n%s\n",
              analysis::render_figure5(fig).c_str());

  bench::print_paper_note("Figure 5 / §4.3");
  std::printf(
      "paper: RIPE reached 11,616 of 18,160 prefixes (64.0%%) over R&E;\n"
      "1,688 of 2,640 ASes (63.9%%). Norway/Sweden/France/Spain > 90%% of\n"
      "ASes over R&E (NREN sells commodity, members use it near-exclusively,\n"
      "NREN prepends toward commodity); Germany/Ukraine/Belarus < 15%%\n"
      "(NREN shares an unprepended tier-1 with RIPE, commodity wins the\n"
      "tie-break). NY 84%% (members conditioned to prepend), CA 78%%.\n"
      "shape criteria: overall R&E share around ~2/3; the NREN-commodity +\n"
      "prepend countries sit near the top, shared-provider countries at the\n"
      "bottom; NY above CA.\n");
  return 0;
}
