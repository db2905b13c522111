// Figure 8 reproduction: CDF of the configuration at which each AS first
// switched from commodity to R&E, for Participant (U.S. domestic) vs
// Peer-NREN (international) populations, in both experiments.
#include <cstdio>

#include "bench/world.h"
#include "core/comparator.h"
#include "core/switch_cdf.h"

#include <unordered_map>

int main() {
  using namespace re;
  const bench::World world = bench::make_world();

  const auto surf = core::classify_experiment(
      bench::run_experiment(world, core::ReExperiment::kSurf));
  const auto i2 = core::classify_experiment(
      bench::run_experiment(world, core::ReExperiment::kInternet2));
  const auto schedule = core::paper_schedule();

  const auto both = core::switching_in_both(surf, i2);
  std::printf("prefixes switching to R&E in both experiments: %zu\n\n",
              both.size());

  const core::SwitchCdf surf_cdf =
      core::build_switch_cdf(surf, i2, schedule, /*use_second=*/false);
  std::printf("(a) SURF experiment (participant N=%zu, peer-nren N=%zu)\n%s\n",
              surf_cdf.participant_ases, surf_cdf.peer_nren_ases,
              core::render_switch_cdf(surf_cdf).c_str());

  const core::SwitchCdf i2_cdf =
      core::build_switch_cdf(surf, i2, schedule, /*use_second=*/true);
  std::printf("(b) Internet2 experiment (participant N=%zu, peer-nren N=%zu)\n%s\n",
              i2_cdf.participant_ases, i2_cdf.peer_nren_ases,
              core::render_switch_cdf(i2_cdf).c_str());

  // Appendix B: ASes whose first switch is at 0-1 in BOTH experiments are
  // the candidate route-age (case J) networks. Compute the intersection and
  // check it against the planted case-J ASes.
  {
    int first_comm_step = -1;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      if (schedule[i].re == 0 && schedule[i].comm > 0) {
        first_comm_step = static_cast<int>(i);
        break;
      }
    }
    std::unordered_map<net::Asn, std::pair<int, int>> first_switch;
    for (const auto& [a, b] : both) {
      auto& entry = first_switch
                        .try_emplace(a->origin, std::pair<int, int>{99, 99})
                        .first->second;
      if (a->first_re_round) entry.first = std::min(entry.first, *a->first_re_round);
      if (b->first_re_round) entry.second = std::min(entry.second, *b->first_re_round);
    }
    std::size_t both_at_01 = 0, planted_hits = 0, prefix_count = 0;
    for (const auto& [as, rounds] : first_switch) {
      if (rounds.first != first_comm_step || rounds.second != first_comm_step) {
        continue;
      }
      ++both_at_01;
      const topo::AsRecord* r = world.ecosystem.directory().find(as);
      if (r != nullptr && r->traits.uses_route_age) ++planted_hits;
      for (const auto& [a, b] : both) {
        if (a->origin == as) ++prefix_count;
      }
    }
    std::printf(
        "ASes first switching at 0-1 in BOTH experiments: %zu (%zu prefixes),"
        " of which %zu are planted route-age (case J) networks\n\n",
        both_at_01, prefix_count, planted_hits);
  }

  bench::print_paper_note("Figure 8 / Appendix B");
  std::printf(
      "paper: 859 prefixes (254 ASes) switched in both experiments;\n"
      "Participant N=128, Peer-NREN N=129. In the SURF experiment the\n"
      "Participant population switched one prepend configuration later than\n"
      "Peer-NREN (their R&E paths to the SURF origin are longer); in the\n"
      "Internet2 experiment the curves roughly overlap. 8 prefixes by 4\n"
      "ASes switched at 0-1 in both experiments (route-age networks).\n"
      "shape criteria: in the SURF run the Peer-NREN CDF leads the\n"
      "Participant CDF; in the Internet2 run the gap shrinks or reverses;\n"
      "a handful of ASes switch at 0-1.\n");
  return 0;
}
