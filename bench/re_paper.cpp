// re_paper: regenerates every table and figure EXPERIMENTS.md cites, in
// one run.
//
// usage: re_paper [--scale S]
//
// One function per EXPERIMENTS.md section prints that section, in the
// document's order: the §3.2 seed pipeline, Tables 1-4, Figures 3 and
// 5-8, the §2.2 background, the four ablations and the §1/§5
// implications. The paper-scale world (ecosystem seed 20250529) is built
// once. The SURF (seed 501) and Internet2 (seed 502) experiments, the RIB
// survey and every ablation variant run once; sections reading the same
// run share it, and ablation variants sharing a §3.1 baseline fork one
// checkpoint of it. --scale S in (0, 1] shrinks the world for a quick
// pass.
//
// Exit status: 0; 1 when Figure 7's micro-simulation disagrees with the
// analytic model in any relative-path-length configuration; 2 on a bad
// flag.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/report.h"
#include "core/classifier.h"
#include "core/comparator.h"
#include "core/experiment.h"
#include "core/gao_rexford.h"
#include "core/prepend_analysis.h"
#include "core/relative_preference.h"
#include "core/rib_survey.h"
#include "core/route_selection.h"
#include "core/state_model.h"
#include "core/switch_cdf.h"
#include "core/timeline.h"
#include "core/validator.h"
#include "probing/seeds.h"
#include "runtime/env.h"
#include "runtime/rng_streams.h"
#include "runtime/thread_pool.h"
#include "topology/ecosystem.h"
#include "topology/ixp.h"
#include "topology/relationship_inference.h"

namespace re {
namespace {

using Inferences = std::vector<core::PrefixInference>;

constexpr std::uint64_t kWorldSeed = 20250529;

double parse_scale(int argc, char** argv) {
  double scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    std::optional<double> parsed;
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      parsed = runtime::parse_positive_double(argv[++i]);
    }
    if (!parsed || *parsed > 1.0) {
      std::fprintf(stderr, "usage: re_paper [--scale S], S in (0, 1]\n");
      std::exit(2);
    }
    scale = *parsed;
  }
  return scale;
}

struct World {
  topo::Ecosystem ecosystem;
  probing::SeedDatabase seed_db;
  probing::SelectionResult selection;
};

World make_world(double scale) {
  topo::EcosystemParams params;
  if (scale < 1.0) params = params.scaled(scale);
  params.seed = kWorldSeed;
  World world{topo::Ecosystem::generate(params), {}, {}};
  world.seed_db =
      probing::SeedDatabase::generate(world.ecosystem, probing::SeedGenParams{});
  world.selection = probing::select_probe_seeds(world.ecosystem, world.seed_db, 11);
  std::printf("[world] scale=%.2f ases=%zu prefixes=%zu responsive=%zu\n\n",
              scale, world.ecosystem.directory().size(),
              world.ecosystem.prefixes().size(), world.selection.seeds.size());
  return world;
}

// The canonical config: one fixed seed per experiment.
core::ExperimentConfig experiment_config(core::ReExperiment which) {
  core::ExperimentConfig config;
  config.experiment = which;
  config.seed = which == core::ReExperiment::kSurf ? 501 : 502;
  return config;
}

// The ablations' config: the canonical one without outage plants, which
// would blur the effect each ablation isolates.
core::ExperimentConfig ablation_config(core::ReExperiment which) {
  core::ExperimentConfig config = experiment_config(which);
  config.auto_plant_outages = false;
  return config;
}

void print_paper_note(const char* what) {
  std::printf(
      "--- paper reference (%s) -------------------------------------\n",
      what);
}

// The canonical SURF and Internet2 runs, read by Tables 1-4 and Figures
// 3 and 8: both classifications, and the Internet2 run itself for Table
// 3's views and Figure 3's update log.
struct Experiments {
  core::ExperimentResult i2;
  Inferences surf_inferences, i2_inferences;
};

Experiments run_experiments(const World& world, runtime::ThreadPool& pool) {
  const auto run = [&](core::ReExperiment which) {
    return core::ExperimentController(world.ecosystem, world.selection.seeds,
                                      experiment_config(which))
        .run();
  };
  Experiments out;
  pool.run_batch({[&] {
                    out.surf_inferences = core::classify_experiment(
                        run(core::ReExperiment::kSurf));
                  },
                  [&] {
                    out.i2 = run(core::ReExperiment::kInternet2);
                    out.i2_inferences = core::classify_experiment(out.i2);
                  }});
  return out;
}

// ---------------------------------------------------------------- §3.2

// The probe-seed pipeline statistics, plus the multi-seed trial study:
// the Internet2 experiment re-run under 16 master-seed-derived seeds to
// bound Table 1's sensitivity to simulation randomness.
void section_seeds(const World& world, runtime::ThreadPool& pool) {
  const probing::SelectionStats& s = world.selection.stats;

  auto pct = [](std::size_t num, std::size_t den) {
    return den == 0 ? 0.0 : 100.0 * static_cast<double>(num) / den;
  };
  std::printf("§3.2 — probe seed pipeline\n\n");
  std::printf("prefix universe (non-covered):        %zu\n", s.total_prefixes);
  std::printf("excluded as covered by another:       %zu\n", s.covered_excluded);
  std::printf("with ISI history seeds:               %zu (%.1f%%)\n",
              s.isi_seeded, pct(s.isi_seeded, s.total_prefixes));
  std::printf("with any seeds (ISI or Censys):       %zu (%.1f%%)\n",
              s.any_seeded, pct(s.any_seeded, s.total_prefixes));
  std::printf("responsive at probe time:             %zu (%.1f%%)\n",
              s.responsive, pct(s.responsive, s.total_prefixes));
  std::printf("with three destinations:              %zu (%.1f%% of responsive)\n",
              s.with_three_targets, pct(s.with_three_targets, s.responsive));
  std::printf("seed origin: ISI-only %zu (%.1f%%), Censys-only %zu (%.1f%%),"
              " mixed %zu (%.1f%%)\n",
              s.isi_only, pct(s.isi_only, s.responsive), s.censys_only,
              pct(s.censys_only, s.responsive), s.mixed,
              pct(s.mixed, s.responsive));
  std::printf("ASes: total %zu, seeded %zu (%.1f%%), responsive %zu (%.1f%%)\n\n",
              s.ases_total, s.ases_seeded, pct(s.ases_seeded, s.ases_total),
              s.ases_responsive, pct(s.ases_responsive, s.ases_total));

  print_paper_note("§3.2");
  std::printf(
      "paper: 17,989 prefixes after excluding 437 covered + the measurement\n"
      "prefix; ISI seeds for 11,731 (65.2%%) covering 95.8%% of ASes; with\n"
      "Censys 13,189 (73.3%%) covering 98.8%%; responsive addresses in\n"
      "12,241 (68.0%%) / 2,594 ASes (97.8%%); three destinations in 10,123\n"
      "(82.7%%) of responsive; ICMP/ISI seeds for 77.8%%, Censys 24.4%%,\n"
      "mixed 2.1%%.\n\n");

  constexpr std::size_t kTrials = 16;
  constexpr std::uint64_t kMaster = 777;
  std::printf("multi-seed study: %zu trials, master seed %llu, %zu threads\n",
              kTrials, static_cast<unsigned long long>(kMaster),
              runtime::ThreadPool::default_thread_count());
  std::vector<core::Table1> tables(kTrials);
  pool.parallel_for(kTrials, [&](std::size_t trial) {
    core::ExperimentConfig config;
    config.experiment = core::ReExperiment::kInternet2;
    config.seed = runtime::derive_stream_seed(kMaster, trial);
    tables[trial] = core::summarize_table1(core::classify_experiment(
        core::ExperimentController(world.ecosystem, world.selection.seeds,
                                   config)
            .run()));
  });

  // Table 1 stability across seeds: the headline Always-R&E share should
  // move by at most a few points between trials (§4's robustness claim).
  double lo = 100.0, hi = 0.0, sum = 0.0;
  for (const core::Table1& table : tables) {
    const double share = 100.0 * table.prefix_share(core::Inference::kAlwaysRe);
    lo = std::min(lo, share);
    hi = std::max(hi, share);
    sum += share;
  }
  std::printf("Always R&E prefix share across trials: mean %.1f%%"
              " min %.1f%% max %.1f%% (spread %.1f pts)\n",
              sum / static_cast<double>(kTrials), lo, hi, hi - lo);
}

// ------------------------------------------------------------ Table 1

// Prefix/AS counts per route-preference inference, for the SURF (May
// 2025) and Internet2 (June 2025) experiments.
void section_table1(const Experiments& runs) {
  const std::pair<core::ReExperiment, const Inferences*> experiments[] = {
      {core::ReExperiment::kSurf, &runs.surf_inferences},
      {core::ReExperiment::kInternet2, &runs.i2_inferences}};
  for (const auto& [which, inferences] : experiments) {
    const core::Table1 table = core::summarize_table1(*inferences);
    std::printf("%s\n",
                analysis::render_table1(
                    table, "Table 1 — " + core::to_string(which))
                    .c_str());
  }

  print_paper_note("Table 1");
  std::printf(
      "SURF (May 2025):      Always R&E 9,852 (81.8%%) | Always commodity 843"
      " (7.0%%) | Switch to R&E 963 (8.0%%) | Switch to comm. 1 | Mixed 382"
      " (3.1%%) | Oscillating 6 | total 12,047 prefixes / 2,574 ASes\n"
      "Internet2 (June 2025): Always R&E 9,758 (80.8%%) | Always commodity 840"
      " (7.0%%) | Switch to R&E 1,103 (9.1%%) | Switch to comm. 3 | Mixed 371"
      " (3.1%%) | Oscillating 2 | total 12,077 prefixes / 2,578 ASes\n"
      "shape criteria: Always R&E dominates (~4/5), commodity ~7%%, the\n"
      "equal-localpref switch signature is the second-order signal (~8-9%%),\n"
      "mixed ~3%%, degenerate categories near zero.\n");
}

// ------------------------------------------------------------ Table 2

// Cross-experiment comparison of prefix-level inferences (same seeds, one
// week apart), including the NIKS divergence.
void section_table2(const World& world, const Experiments& runs) {
  const Inferences& surf = runs.surf_inferences;
  const Inferences& i2 = runs.i2_inferences;
  const core::Table2 table = core::compare_experiments(surf, i2);
  std::printf("Table 2 — SURF (first) vs Internet2 (second)\n\n%s\n",
              analysis::render_table2(table).c_str());

  // The NIKS attribution: how many of the Always-R&E -> Switch-to-R&E
  // differences are prefixes of members behind NIKS (Figure 4)?
  std::size_t niks_diff = 0, niks_members = 0;
  {
    std::unordered_map<net::Prefix, const core::PrefixInference*> second;
    for (const auto& p : i2) second[p.prefix] = &p;
    std::unordered_set<net::Asn> niks_ases;
    for (const net::Asn member : world.ecosystem.members()) {
      const topo::AsRecord* r = world.ecosystem.directory().find(member);
      if (r->country == "RU") {
        niks_ases.insert(member);
        ++niks_members;
      }
    }
    for (const auto& p : surf) {
      if (p.inference != core::Inference::kAlwaysRe) continue;
      const auto it = second.find(p.prefix);
      if (it == second.end() ||
          it->second->inference != core::Inference::kSwitchToRe) {
        continue;
      }
      niks_diff += niks_ases.count(p.origin) ? 1 : 0;
    }
  }
  const std::size_t cell = table.cell(core::Inference::kAlwaysRe,
                                      core::Inference::kSwitchToRe);
  std::printf(
      "NIKS attribution: %zu of %zu Always-R&E->Switch-to-R&E differences are"
      " prefixes of the %zu members behind NIKS\n\n",
      niks_diff, cell, niks_members);

  print_paper_note("Table 2");
  std::printf(
      "incomparable: loss 279, mixed 400, oscillating 6, switch-to-comm 4"
      " (689 total)\nsame inferences 11,189 of 11,552 comparable (96.9%%);"
      " 161 of the 184 Always-R&E->Switch-to-R&E differences were NIKS\n"
      "shape criteria: >95%% same; the dominant difference row is"
      " Always-R&E->Switch-to-R&E and is mostly NIKS members.\n");
}

// ------------------------------------------------------------ Table 3

// Congruence of policy inferences with the public BGP views of tested
// ASes, plus the §4.1.2-style ground-truth check.
void section_table3(const World& world, const Experiments& runs) {
  const core::Table3 table = core::validate_against_views(
      runs.i2_inferences, runs.i2, world.ecosystem);
  std::printf("Table 3 — congruence with public BGP views (Internet2)\n\n%s\n",
              analysis::render_table3(table).c_str());

  // §4.1.2-style operator validation: the planted policy is the operator.
  const core::GroundTruthReport sampled =
      core::validate_against_plant(runs.i2_inferences, world.ecosystem, 33);
  const core::GroundTruthReport full =
      core::validate_against_plant(runs.i2_inferences, world.ecosystem);
  std::printf("33-AS sample (the paper's validation size):\n%s\n",
              analysis::render_ground_truth(sampled).c_str());
  std::printf("all ASes:\n%s\n", analysis::render_ground_truth(full).c_str());

  print_paper_note("Table 3 / §4.1.2");
  std::printf(
      "paper: 22 of 25 view ASes congruent; all three incongruent ASes\n"
      "exported a commodity VRF to the collector while actually preferring\n"
      "R&E (so the inference was right). Operator ground truth: >= 32 of 33\n"
      "inferences correct.\n"
      "shape criteria: congruent >> incongruent; every incongruence is a\n"
      "VRF-split exporter; ground-truth accuracy ~97%%+.\n");
}

// The RIB survey line Table 4 and Figure 5 each open with.
void print_survey_note() {
  std::printf("[survey] propagating one representative prefix per origin "
              "(tens of seconds at full scale)...\n");
}

// ------------------------------------------------------------ Table 4

// Does origin-AS prepending observed in public RIBs align with the
// inferred route preference?
void section_table4(const Experiments& runs,
                    const core::RibSurveyResult& survey) {
  print_survey_note();
  const core::Table4 table = core::build_table4(runs.i2_inferences, survey);
  std::printf("\nTable 4 — inference vs origin prepending (Internet2)\n\n%s\n",
              analysis::render_table4(table).c_str());

  print_paper_note("Table 4");
  std::printf(
      "              R=C           R<C           R>C      no commodity\n"
      "Always R&E    3,005 73.8%%   2,628 83.2%%   204 50.7%%   3,921 88.3%%\n"
      "Always comm.    319  7.8%%     192  6.1%%   149 37.1%%     180  4.1%%\n"
      "Switch to R&E   610 15.0%%     248  7.9%%    28  7.0%%     217  4.9%%\n"
      "Mixed           138  3.4%%      90  2.8%%    21  5.2%%     122  2.7%%\n"
      "Total         4,072         3,158         402         4,440\n"
      "shape criteria: R<C (prepend-toward-commodity) is the most\n"
      "R&E-preferring column; R>C has by far the largest Always-commodity\n"
      "share yet still ~half Always-R&E (prepending is a weak predictor);\n"
      "the no-commodity column is the most R&E-preferring of all but not\n"
      "100%% (hidden commodity exists).\n");
}

// ----------------------------------------------------------- Figure 3

// Measurement-prefix BGP update activity around the nine probing windows
// of the Internet2 experiment.
void section_figure3(const World& world, const Experiments& runs) {
  const core::Figure3 fig = core::build_figure3(runs.i2);
  std::printf("Figure 3 — update churn timeline (Internet2)\n\n%s\n",
              core::render_figure3(fig).c_str());

  // The paper's headline claim: activity settles >= 50 minutes before each
  // probing window.
  net::SimTime min_quiet = -1;
  for (const core::TimelineWindow& w : fig.windows) {
    if (min_quiet < 0 || w.quiet_before_probe < min_quiet) {
      min_quiet = w.quiet_before_probe;
    }
  }
  std::printf("minimum quiet period before any probing window: %s\n\n",
              net::SimClock::format(min_quiet).c_str());

  print_paper_note("Figure 3");
  std::printf(
      "paper: 162 updates across >4h while varying R&E prepends vs 9,162\n"
      "across 4h while varying commodity prepends (~57x); activity settled\n"
      ">= 50 minutes before every active measurement window.\n"
      "shape criteria: commodity-phase churn dwarfs R&E-phase churn (few\n"
      "public peers see the R&E-fabric-scoped route); every probing window\n"
      "opens on a settled view. Absolute counts are smaller here because\n"
      "the simulated collector has ~%zu peers, not RouteViews+RIS's\n"
      "hundreds.\n",
      world.ecosystem.collector_peers().size());
}

// ----------------------------------------------------------- Figure 5

// Share of R&E-connected ASes per European country and U.S. state that an
// equal-localpref vantage (RIPE) reaches over R&E.
void section_figure5(const World& world, const core::RibSurveyResult& survey) {
  print_survey_note();
  const core::Figure5 fig = core::build_figure5(world.ecosystem, survey, 4);
  std::printf("\nFigure 5 — RIPE's selected routes toward R&E prefixes\n\n%s\n",
              analysis::render_figure5(fig).c_str());

  print_paper_note("Figure 5 / §4.3");
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
}

// ----------------------------------------------------------- Figure 6

// The generalized peer-vs-provider preference survey at an IXP (§5),
// including the direct-peering confound and the second-tier-1 fallback
// the paper proposes.
void section_figure6() {
  topo::IxpScenarioParams params;
  params.member_count = 200;
  params.use_second_transit = true;
  const topo::IxpScenario scenario = topo::IxpScenario::generate(params);
  bgp::BgpNetwork network(params.seed);
  scenario.build_network(network);

  core::RouteClassEndpoint peer_side{"ixp-peer", params.host, 17, false};
  core::RouteClassEndpoint provider_side{"provider", net::Asn{65001}, 18,
                                         false};
  core::RelativePreferenceExperiment experiment(network, peer_side,
                                                provider_side);
  const auto results = experiment.run(scenario.member_asns());

  const auto expected_of = [](const topo::IxpMemberSpec& member) {
    return member.equal_localpref ? core::RelativePreference::kLengthSensitive
           : member.prefers_provider ? core::RelativePreference::kAlwaysSecond
                                     : core::RelativePreference::kAlwaysFirst;
  };

  // Cross-tab planted stance x inferred preference, split by confound.
  std::map<std::pair<std::string, std::string>, std::size_t> cross;
  std::size_t clean_total = 0, clean_correct = 0;
  std::size_t confounded_total = 0, confounded_correct = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const topo::IxpMemberSpec& member = scenario.members[i];
    const std::string planted = member.equal_localpref ? "equal-localpref"
                                : member.prefers_provider ? "prefers-provider"
                                                          : "prefers-peers";
    ++cross[{planted, to_string(results[i].preference)}];
    const bool correct = results[i].preference == expected_of(member);
    if (member.peers_with_host_transit) {
      ++confounded_total;
      confounded_correct += correct ? 1 : 0;
    } else {
      ++clean_total;
      clean_correct += correct ? 1 : 0;
    }
  }
  std::printf("planted stance x inferred preference (%d members):\n\n",
              params.member_count);
  for (const auto& [key, count] : cross) {
    std::printf("  %-18s -> %-18s %zu\n", key.first.c_str(),
                key.second.c_str(), count);
  }
  std::printf(
      "\naccuracy: %zu/%zu without the confound, %zu/%zu with a direct\n"
      "tier-1 peering (Beta-type members)\n\n",
      clean_correct, clean_total, confounded_correct, confounded_total);

  // The §5 fallback: a second tier-1 the confounded member does not peer
  // with.
  core::RouteClassEndpoint second_provider{"provider-2", net::Asn{65002}, 19,
                                           false};
  core::RelativePreferenceConfig second_config;
  second_config.prefix = *net::Prefix::parse("198.51.100.0/24");
  core::RelativePreferenceExperiment fallback(network, peer_side,
                                              second_provider, second_config);
  const auto fallback_results = fallback.run(scenario.member_asns());
  std::size_t resolved = 0;
  for (std::size_t i = 0; i < fallback_results.size(); ++i) {
    const topo::IxpMemberSpec& member = scenario.members[i];
    if (!member.peers_with_host_transit) continue;
    resolved += fallback_results[i].preference == expected_of(member) ? 1 : 0;
  }
  std::printf("second-tier-1 fallback resolves %zu of %zu confounded members\n\n",
              resolved, confounded_total);

  print_paper_note("Figure 6 / §5");
  std::printf(
      "the paper proposes this setup without running it; the reproduction\n"
      "demonstrates the method, the confound ('so long as the tested ASes\n"
      "do not also peer with the measurement host's transit provider'),\n"
      "and the proposed second-tier-1 fallback.\n"
      "shape criteria: near-perfect stance recovery for unconfounded\n"
      "members; confounded members misclassify; the fallback recovers most\n"
      "of them.\n");
}

// ----------------------------------------------------------- Figure 7

// State diagrams of route selection under the paper's prepend schedule,
// for relative AS-path-length cases A..I and the route-age case J, from
// the analytic model, cross-checked against micro-simulations on a real
// BgpNetwork. Returns false when any configuration disagrees.
bool section_figure7() {
  const auto schedule = core::paper_schedule();

  std::printf("Figure 7 — analytic state diagram (R = R&E, C = commodity)\n\n");
  std::printf("%s\n", core::render_figure7(schedule).c_str());

  // Cross-check: micro-simulations with provider chains realizing the same
  // relative path lengths must agree with the analytic model up to the
  // arbitrary router-id tie-break.
  std::printf("micro-simulation cross-check:\n");
  int agree = 0, total = 0;
  for (int re_chain = 0; re_chain <= 4; ++re_chain) {
    for (int comm_chain = 0; comm_chain <= 4; ++comm_chain) {
      const auto simulated = core::simulate_selection(
          re_chain, comm_chain, /*use_path_length=*/true,
          /*use_route_age=*/false, schedule);
      core::StateModelConfig config;
      config.re_advantage = comm_chain - re_chain;
      config.tie_break = core::TieBreak::kArbitraryRe;
      const auto predicted_re = core::predict_selection(config, schedule);
      config.tie_break = core::TieBreak::kArbitraryCommodity;
      const auto predicted_comm = core::predict_selection(config, schedule);
      const bool ok = simulated == predicted_re || simulated == predicted_comm;
      agree += ok ? 1 : 0;
      ++total;
      std::string row;
      for (const auto s : simulated) {
        row += s == core::SelectedRoute::kRe ? 'R' : 'C';
      }
      std::printf("  re-chain %d comm-chain %d: %s %s\n", re_chain, comm_chain,
                  row.c_str(), ok ? "(matches model)" : "(MISMATCH)");
    }
  }
  std::printf("\n%d / %d chain configurations match the analytic model\n\n",
              agree, total);

  // Case J in simulation: a network ignoring path length, breaking ties on
  // route age, switches exactly at the first commodity prepend (0-1).
  const auto case_j = core::simulate_selection(2, 2, false, true, schedule);
  std::string row;
  for (const auto s : case_j) row += s == core::SelectedRoute::kRe ? 'R' : 'C';
  std::printf("case J (simulated, route-age tie-break): %s\n\n", row.c_str());

  print_paper_note("Figure 7 / Appendix A");
  std::printf(
      "paper: during the R&E-prepend phase the commodity route is older, so\n"
      "equal-length ties resolve to commodity; during the commodity-prepend\n"
      "phase the R&E route is older and wins ties. Networks ignoring path\n"
      "length and selecting the oldest route switch at configuration 0-1.\n"
      "shape criteria: every length-sensitive case switches commodity->R&E\n"
      "at most once; switch round is monotone in the R&E handicap; case J\n"
      "switches exactly at 0-1.\n");
  return agree == total;
}

// ----------------------------------------------------------- Figure 8

// Appendix B's route-age signature: the ASes whose first switch to R&E
// is at configuration 0-1 in both experiments, their prefixes, and how
// many of them are planted route-age (case J) networks.
struct ZeroOneSwitchers {
  std::size_t ases = 0;
  std::size_t prefixes = 0;
  std::size_t planted_route_age = 0;
};

ZeroOneSwitchers zero_one_switchers(const topo::Ecosystem& ecosystem,
                                    const Inferences& surf,
                                    const Inferences& i2) {
  const auto schedule = core::paper_schedule();
  int first_comm_step = -1;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].re == 0 && schedule[i].comm > 0) {
      first_comm_step = static_cast<int>(i);
      break;
    }
  }

  struct FirstSwitch {
    int surf = 99, i2 = 99;
    std::size_t prefixes = 0;
  };
  std::unordered_map<net::Asn, FirstSwitch> first_switch;
  for (const auto& [a, b] : core::switching_in_both(surf, i2)) {
    FirstSwitch& entry = first_switch[a->origin];
    if (a->first_re_round) entry.surf = std::min(entry.surf, *a->first_re_round);
    if (b->first_re_round) entry.i2 = std::min(entry.i2, *b->first_re_round);
    ++entry.prefixes;
  }
  ZeroOneSwitchers out;
  for (const auto& [as, entry] : first_switch) {
    if (entry.surf != first_comm_step || entry.i2 != first_comm_step) continue;
    ++out.ases;
    out.prefixes += entry.prefixes;
    const topo::AsRecord* record = ecosystem.directory().find(as);
    if (record != nullptr && record->traits.uses_route_age) {
      ++out.planted_route_age;
    }
  }
  return out;
}

// CDF of the configuration at which each AS first switched from
// commodity to R&E, for Participant (U.S. domestic) vs Peer-NREN
// (international) populations, in both experiments.
void section_figure8(const World& world, const Experiments& runs) {
  const Inferences& surf = runs.surf_inferences;
  const Inferences& i2 = runs.i2_inferences;
  const auto schedule = core::paper_schedule();

  std::printf("prefixes switching to R&E in both experiments: %zu\n\n",
              core::switching_in_both(surf, i2).size());

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

  const ZeroOneSwitchers cohort = zero_one_switchers(world.ecosystem, surf, i2);
  std::printf(
      "ASes first switching at 0-1 in BOTH experiments: %zu (%zu prefixes),"
      " of which %zu are planted route-age (case J) networks\n\n",
      cohort.ases, cohort.prefixes, cohort.planted_route_age);

  print_paper_note("Figure 8 / Appendix B");
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
}

// ---------------------------------------------------------------- §2.2

// The routing-policy-inference substrate the paper builds on:
//  (a) Gao-Rexford conformance of localpref assignments (Wang & Gao 2003;
//      Kastanakis et al. 2023), read off the simulated looking glasses.
//  (b) AS relationship inference from public paths, validated against the
//      planted ground truth (Gao 2001 / CAIDA-style).
// Sweeps one prefix per member through its own network, so a full-scale
// run uses a quarter-scale world.
void section_related_work(double scale) {
  topo::EcosystemParams params;
  params = params.scaled(scale < 1.0 ? scale : 0.25);
  params.seed = kWorldSeed;
  const topo::Ecosystem eco = topo::Ecosystem::generate(params);
  bgp::BgpNetwork network(17);
  eco.build_network(network);

  // ---------------------------------------------- (a) localpref hierarchy
  const core::GaoRexfordSummary summary = core::analyze_gao_rexford(network);
  std::printf("(a) Gao-Rexford conformance of localpref assignments\n\n");
  for (const auto& [cls, count] : summary.counts) {
    std::printf("  %-16s %zu\n", to_string(cls).c_str(), count);
  }
  std::printf("  conformance over rankable ASes: %.1f%% (%zu ranked)\n\n",
              summary.conformance_rate() * 100.0, summary.ranked());

  // The paper's own dimension, read from the configs directly: how do
  // members rank their R&E providers vs commodity providers? (This is the
  // configured truth §4's probing recovers remotely.)
  const core::ReStanceSummary stance =
      core::analyze_re_stance(network, eco.members());
  std::printf(
      "    provider-class localpref, members with both kinds (N=%zu):\n"
      "      R&E higher %zu (%.1f%%), equal %zu (%.1f%%), commodity higher"
      " %zu (%.1f%%)\n"
      "    R&E-only members %zu, commodity-only (incl. reject-R&E) %zu\n\n",
      stance.dual_homed, stance.re_higher,
      100.0 * stance.re_higher / std::max<std::size_t>(1, stance.dual_homed),
      stance.equal,
      100.0 * stance.equal / std::max<std::size_t>(1, stance.dual_homed),
      stance.commodity_higher,
      100.0 * stance.commodity_higher /
          std::max<std::size_t>(1, stance.dual_homed),
      stance.re_only, stance.commodity_only);

  // ------------------------------------- (b) relationship inference
  std::printf("(b) AS relationship inference from collector paths\n\n");
  std::vector<bgp::AsPath> observed;
  int announced = 0;
  core::sweep_origins(eco, network, [&](net::Asn, const net::Prefix& prefix) {
    for (const net::Asn peer : eco.collector_peers()) {
      if (const bgp::Route* best = network.speaker(peer)->best(prefix)) {
        observed.push_back(network.paths().path(best->path).prepended(peer, 1));
      }
    }
    ++announced;
  });
  std::printf("  %zu vantage paths from %d origins\n", observed.size(),
              announced);

  const auto inference = topo::RelationshipInference::infer(observed);
  std::map<topo::AsEdge, topo::InferredRelationship> truth;
  for (const net::Asn asn : eco.directory().all()) {
    const topo::AsRecord* r = eco.directory().find(asn);
    auto add_provider = [&](net::Asn provider) {
      truth[topo::AsEdge::of(asn, provider)] =
          asn < provider ? topo::InferredRelationship::kCustomerToProvider
                         : topo::InferredRelationship::kProviderToCustomer;
    };
    for (const net::Asn p : r->re_providers) add_provider(p);
    for (const net::Asn p : r->commodity_providers) add_provider(p);
    for (const net::Asn peer : r->re_peers) {
      truth[topo::AsEdge::of(asn, peer)] =
          topo::InferredRelationship::kPeerToPeer;
    }
  }
  for (std::size_t i = 0; i < eco.tier1s().size(); ++i) {
    for (std::size_t j = i + 1; j < eco.tier1s().size(); ++j) {
      truth[topo::AsEdge::of(eco.tier1s()[i], eco.tier1s()[j])] =
          topo::InferredRelationship::kPeerToPeer;
    }
  }
  const auto report = topo::validate_inference(inference, truth);
  std::printf(
      "  %zu edges inferred, %zu validated: %.1f%% correct\n"
      "  (transit-as-peer %zu, peer-as-transit %zu, inverted %zu)\n\n",
      inference.edge_count(), report.edges_checked,
      report.accuracy() * 100.0, report.transit_as_peer,
      report.peer_as_transit, report.inverted);

  // Customer cones for the backbones (the Anwar et al. modelling input).
  for (const net::Asn asn : {eco.internet2(), eco.geant(), eco.lumen()}) {
    const auto cone = inference.customer_cone(asn);
    std::printf("  customer cone of %-8s: %zu ASes\n",
                asn.to_string().c_str(), cone.size());
  }
  std::printf("\n");

  print_paper_note("§2.2 background");
  std::printf(
      "Wang & Gao 2003: nearly all of 15 looking-glass ASes followed\n"
      "Gao-Rexford (>99%% of assignments); Kastanakis 2023: 83%% of routes\n"
      "conform, some ASes tie peer/provider or peer/customer localpref.\n"
      "CAIDA's relationship inference validates >90%% against ground truth.\n"
      "shape criteria: conformance is high but not total, with\n"
      "peer==provider ties as the main deviation (our planted\n"
      "equal-localpref minority); relationship inference lands >85%%.\n");
}

// ----------------------------------------------------------- ablations

// The classification of every ablation variant, each run once. `surf`
// and `i2` are the outage-free canonical runs: the paper-ordered,
// hour-paced, 3-target, route-age-planted control that all four
// ablations compare against.
struct AblationRuns {
  Inferences surf, i2;
  Inferences i2_shuffled;                        // prepend order
  Inferences i2_two_minutes, i2_twenty_seconds;  // pacing
  Inferences i2_one_target, i2_two_targets;      // VP diversity
  Inferences surf_stripped, i2_stripped;         // route age
};

AblationRuns run_ablations(const World& world, runtime::ThreadPool& pool) {
  // The route-age variant strips the plant from a copied ecosystem, so
  // the rebuilt networks use router-id tie-breaks everywhere.
  topo::Ecosystem stripped = world.ecosystem;
  for (const net::Asn member : stripped.members()) {
    topo::AsRecord* record = stripped.directory().find(member);
    record->traits.uses_route_age = false;
    record->traits.ignores_as_path_length = false;
  }
  const probing::SelectionResult one_target =
      probing::select_probe_seeds(world.ecosystem, world.seed_db, 11, 1);
  const probing::SelectionResult two_targets =
      probing::select_probe_seeds(world.ecosystem, world.seed_db, 11, 2);

  const auto pacing = [](net::SimTime wait, bool full_convergence) {
    core::ExperimentConfig config =
        ablation_config(core::ReExperiment::kInternet2);
    config.convergence_wait = wait;
    config.full_convergence = full_convergence;
    return config;
  };
  // A naive interleaved prepend ordering, against the paper's monotone one.
  core::ExperimentConfig shuffled =
      ablation_config(core::ReExperiment::kInternet2);
  shuffled.schedule = {{0, 2}, {3, 0}, {0, 0}, {0, 4}, {1, 0},
                       {0, 1}, {4, 0}, {0, 3}, {2, 0}};

  // The Internet2 variants that change only what follows the §3.1
  // baseline (pacing, probe seeds) fork one checkpoint of it; the others
  // have a baseline of their own and run cold.
  const core::ExperimentController::BaselineCheckpoint base =
      core::ExperimentController(world.ecosystem, world.selection.seeds,
                                 ablation_config(core::ReExperiment::kInternet2))
          .checkpoint_baseline();
  AblationRuns runs;
  const auto fork = [&](Inferences& out,
                        const probing::SelectionResult& selection,
                        core::ExperimentConfig config) {
    return std::function<void()>([&, config = std::move(config)] {
      out = core::classify_experiment(
          core::ExperimentController(world.ecosystem, selection.seeds, config)
              .run(base));
    });
  };
  const auto cold = [&](Inferences& out, const topo::Ecosystem& ecosystem,
                        core::ExperimentConfig config) {
    return std::function<void()>([&, config = std::move(config)] {
      out = core::classify_experiment(
          core::ExperimentController(ecosystem, world.selection.seeds, config)
              .run());
    });
  };
  pool.run_batch({
      fork(runs.i2, world.selection,
           ablation_config(core::ReExperiment::kInternet2)),
      fork(runs.i2_two_minutes, world.selection, pacing(2 * net::kMinute, true)),
      fork(runs.i2_twenty_seconds, world.selection, pacing(20, false)),
      fork(runs.i2_one_target, one_target,
           ablation_config(core::ReExperiment::kInternet2)),
      fork(runs.i2_two_targets, two_targets,
           ablation_config(core::ReExperiment::kInternet2)),
      cold(runs.i2_shuffled, world.ecosystem, shuffled),
      cold(runs.surf, world.ecosystem,
           ablation_config(core::ReExperiment::kSurf)),
      cold(runs.surf_stripped, stripped,
           ablation_config(core::ReExperiment::kSurf)),
      cold(runs.i2_stripped, stripped,
           ablation_config(core::ReExperiment::kInternet2)),
  });
  return runs;
}

std::size_t count_of(const std::map<core::Inference, std::size_t>& counts,
                     core::Inference inference) {
  const auto it = counts.find(inference);
  return it == counts.end() ? std::size_t{0} : it->second;
}

// The paper's prepend-configuration ordering (§3.3 / Appendix A) vs a
// naive interleaved ordering. The monotone schedule (shrink R&E
// prepends, then grow commodity prepends) guarantees an equal-localpref
// network transitions commodity -> R&E at most once, making "Switch to
// R&E" an identifiable signature. A shuffled schedule makes the same
// networks flip back and forth, which the classifier can only call
// Oscillating.
void section_ablation_prepend_order(const World& world,
                                    const AblationRuns& runs) {
  // How are the *planted equal-localpref* ASes classified under each order?
  auto tally = [&](const Inferences& inferences) {
    std::map<core::Inference, std::size_t> counts;
    for (const core::PrefixInference& p : inferences) {
      const topo::AsRecord* r = world.ecosystem.directory().find(p.origin);
      if (r == nullptr || r->traits.stance != bgp::ReStance::kEqualPref ||
          r->traits.reject_re_routes || !r->traits.has_commodity ||
          r->traits.uses_route_age) {
        continue;
      }
      ++counts[p.inference];
    }
    return counts;
  };
  const auto paper_counts = tally(runs.i2);
  const auto shuffled_counts = tally(runs.i2_shuffled);

  std::printf(
      "classification of prefixes originated by planted equal-localpref"
      " ASes:\n\n%-24s %14s %16s\n", "inference", "paper order",
      "shuffled order");
  for (const core::Inference inference :
       {core::Inference::kAlwaysRe, core::Inference::kAlwaysCommodity,
        core::Inference::kSwitchToRe, core::Inference::kSwitchToCommodity,
        core::Inference::kMixed, core::Inference::kOscillating,
        core::Inference::kExcludedLoss}) {
    std::printf("%-24s %14zu %16zu\n", to_string(inference).c_str(),
                count_of(paper_counts, inference),
                count_of(shuffled_counts, inference));
  }

  std::printf(
      "\nidentifiable equal-localpref signature: %zu prefixes under the paper"
      " order vs %zu under the shuffled order (%zu degrade to Oscillating)\n\n",
      count_of(paper_counts, core::Inference::kSwitchToRe),
      count_of(shuffled_counts, core::Inference::kSwitchToRe),
      count_of(shuffled_counts, core::Inference::kOscillating));

  print_paper_note("§3.3 design choice");
  std::printf(
      "the paper chose the 4-0..0-0..0-4 ordering 'to minimize the\n"
      "variables that could affect routing decisions between tests'.\n"
      "shape criteria: under the paper order nearly all equal-localpref\n"
      "prefixes show the single commodity->R&E switch; under a shuffled\n"
      "order most of that signal collapses into Oscillating.\n");
}

// The one-hour pacing between configuration changes (§3.3). Two failure
// modes appear when the experiment moves faster:
//   1. probing before convergence: probes observe a half-converged
//      network, corrupting round states;
//   2. route flap damping: ~9% of ASes damp; nine changes minutes apart
//      accumulate penalties past the suppress threshold, hiding routes.
void section_ablation_pacing(const AblationRuns& runs) {
  struct Variant {
    const char* name;
    const Inferences* inferences;
  };
  const Variant variants[] = {
      {"paper pacing (1 hour)", &runs.i2},
      {"rapid (2 minutes)", &runs.i2_two_minutes},
      {"no wait (20 seconds, unconverged)", &runs.i2_twenty_seconds},
  };

  std::unordered_map<net::Prefix, core::Inference> reference;
  for (const auto& p : runs.i2) {
    reference[p.prefix] = p.inference;
  }

  std::printf("%-36s %10s %10s %12s %12s\n", "variant", "switch", "osc.",
              "loss", "vs baseline");
  for (const Variant& v : variants) {
    std::size_t switches = 0, oscillating = 0, loss = 0, changed = 0;
    for (const auto& p : *v.inferences) {
      switches += p.inference == core::Inference::kSwitchToRe ? 1 : 0;
      oscillating += p.inference == core::Inference::kOscillating ? 1 : 0;
      loss += p.inference == core::Inference::kExcludedLoss ? 1 : 0;
      const auto it = reference.find(p.prefix);
      if (it != reference.end() && it->second != p.inference) ++changed;
    }
    std::printf("%-36s %10zu %10zu %12zu %12zu\n", v.name, switches,
                oscillating, loss, changed);
  }

  std::printf("\n");
  print_paper_note("§3.3 pacing");
  std::printf(
      "the paper probes one hour after each change, citing Gray et al.\n"
      "(~9%% of ASes damp, suppress times under an hour) and shows (Fig. 3)\n"
      "activity settled >= 50 minutes before probing.\n"
      "shape criteria: the paper pacing row matches the baseline exactly;\n"
      "faster pacing inflates oscillating/changed counts.\n");
}

// Three responsive systems per prefix vs one (§3.2). The paper probes up
// to three addresses per prefix "to reduce the chance that we were
// unlucky and only selected an address ... assigned to a router operated
// by a different AS". With a single VP per prefix the Mixed class
// disappears (no within-round diversity is observable) and
// interconnect-router addresses silently misattribute the policy.
void section_ablation_vp_diversity(const AblationRuns& runs) {
  const std::pair<int, const Inferences*> variants[] = {
      {1, &runs.i2_one_target}, {2, &runs.i2_two_targets}, {3, &runs.i2}};

  std::printf("%-14s %10s %10s %10s %10s %10s\n", "targets/prefix",
              "always-re", "comm", "switch", "mixed", "loss");
  for (const auto& [targets, inferences] : variants) {
    std::map<core::Inference, std::size_t> counts;
    for (const auto& p : *inferences) {
      ++counts[p.inference];
    }
    std::printf("%-14d %10zu %10zu %10zu %10zu %10zu\n", targets,
                count_of(counts, core::Inference::kAlwaysRe),
                count_of(counts, core::Inference::kAlwaysCommodity),
                count_of(counts, core::Inference::kSwitchToRe),
                count_of(counts, core::Inference::kMixed),
                count_of(counts, core::Inference::kExcludedLoss));
  }

  std::printf("\n");
  print_paper_note("§3.2 / §3.4 design choice");
  std::printf(
      "shape criteria: the Mixed class (and with it the §4.1.2\n"
      "interconnect-router diagnosis) only exists with >= 2 systems per\n"
      "prefix; single-VP probing folds those prefixes into the pure\n"
      "classes, overstating policy uniformity. Loss exclusions also rise\n"
      "with fewer systems per prefix.\n");
}

// Decision-process fidelity: the route-age tie-break. Appendix A/B hinge
// on a small population of networks that ignore AS path length and
// select the oldest route (case J): they are the ASes switching exactly
// at configuration 0-1 in both experiments. With the route-age step
// dropped from every decision process, that signature must disappear,
// showing the 0-1 switchers come from route-age semantics and not from
// the schedule.
void section_ablation_route_age(const World& world, const AblationRuns& runs) {
  const ZeroOneSwitchers with_age =
      zero_one_switchers(world.ecosystem, runs.surf, runs.i2);
  const ZeroOneSwitchers without_age =
      zero_one_switchers(world.ecosystem, runs.surf_stripped, runs.i2_stripped);

  std::printf(
      "ASes first switching at 0-1 in BOTH experiments:\n"
      "  route-age semantics enabled : %zu (%zu planted case-J networks)\n"
      "  route-age semantics removed : %zu (%zu planted case-J networks)\n\n",
      with_age.ases, with_age.planted_route_age, without_age.ases,
      without_age.planted_route_age);

  print_paper_note("Appendix A/B design fidelity");
  std::printf(
      "the paper infers that 8 prefixes by 4 ASes broke ties on route age\n"
      "because they switched at 0-1 in both experiments — the only\n"
      "configuration where route-age semantics produce a switch.\n"
      "shape criteria: with route-age decision semantics the 0-1 cohort\n"
      "exists and consists of the planted case-J ASes; with the tie-break\n"
      "removed the cohort (largely) vanishes.\n");
}

// -------------------------------------------------------- implications

// The "Implication" of the paper's title, quantified: what share of R&E
// traffic would return to the R&E fabric under candidate policy fixes?
// §1/§5: "some data-intensive R&E users may not benefit from the global
// R&E infrastructure due to local routing policies ... the value of the
// R&E infrastructure is unevenly realized." The knobs the findings point
// at:
//   (a) equal-localpref members pinning R&E above commodity (fixing the
//       Switch-to-R&E population);
//   (b) every commodity-preferring member flipping its stance.
void section_implications(const World& world, runtime::ThreadPool& pool) {
  struct Variant {
    const char* name;
    topo::Ecosystem ecosystem;
    core::Table1 table;
  };
  std::vector<Variant> variants;
  variants.push_back({"as measured", world.ecosystem, {}});

  // (a) equal-localpref members pin R&E above commodity.
  {
    topo::Ecosystem fixed = world.ecosystem;
    for (const net::Asn member : fixed.members()) {
      topo::AsRecord* r = fixed.directory().find(member);
      if (r->traits.stance == bgp::ReStance::kEqualPref &&
          !r->traits.uses_route_age) {
        r->traits.stance = bgp::ReStance::kPreferRe;
      }
    }
    variants.push_back({"equal-localpref members pin R&E", std::move(fixed), {}});
  }

  // (b) additionally, commodity-preferring members flip their stance
  //     (import filters kept: a network rejecting R&E routes can't be
  //     fixed by localpref alone).
  {
    topo::Ecosystem fixed = world.ecosystem;
    for (const net::Asn member : fixed.members()) {
      topo::AsRecord* r = fixed.directory().find(member);
      if (!r->traits.reject_re_routes) {
        r->traits.stance = bgp::ReStance::kPreferRe;
        r->traits.uses_route_age = false;
        r->traits.ignores_as_path_length = false;
      }
    }
    variants.push_back({"all importing members prefer R&E", std::move(fixed), {}});
  }

  pool.parallel_for(variants.size(), [&](std::size_t i) {
    core::ExperimentConfig config =
        ablation_config(core::ReExperiment::kInternet2);
    config.p_week_variation = 0.0;
    variants[i].table = core::summarize_table1(core::classify_experiment(
        core::ExperimentController(variants[i].ecosystem,
                                   world.selection.seeds, config)
            .run()));
  });

  std::printf("%-36s %10s %10s %10s %8s\n", "policy variant", "always-re",
              "comm", "switch", "mixed");
  for (const Variant& variant : variants) {
    const core::Table1& table = variant.table;
    std::printf("%-36s %9.1f%% %9.1f%% %9.1f%% %7.1f%%\n", variant.name,
                100 * table.prefix_share(core::Inference::kAlwaysRe),
                100 * table.prefix_share(core::Inference::kAlwaysCommodity),
                100 * table.prefix_share(core::Inference::kSwitchToRe),
                100 * table.prefix_share(core::Inference::kMixed));
  }

  std::printf("\n");
  print_paper_note("§1/§5 implications");
  std::printf(
      "the paper's concern: policy-driven detours push scientific flows\n"
      "onto commodity networks. The counterfactuals quantify the headroom:\n"
      "pinning localpref at the equal-preference minority recovers the\n"
      "Switch-to-R&E share into Always-R&E; flipping deliberate commodity\n"
      "preferences recovers most of the rest, leaving only networks whose\n"
      "import policy (not preference) excludes R&E routes — those need\n"
      "connectivity fixes, not localpref fixes.\n");
}

}  // namespace
}  // namespace re

int main(int argc, char** argv) {
  using namespace re;
  const double scale = parse_scale(argc, argv);
  runtime::ThreadPool pool;
  const World world = make_world(scale);

  // The survey is the longest computation by far and reads only the
  // ecosystem, so it runs beside the experiments and everything up to
  // Table 4.
  std::future<core::RibSurveyResult> pending_survey =
      std::async(std::launch::async,
                 [&] { return core::run_rib_survey(world.ecosystem); });
  const Experiments runs = run_experiments(world, pool);
  const AblationRuns ablations = run_ablations(world, pool);

  section_seeds(world, pool);
  section_table1(runs);
  section_table2(world, runs);
  section_table3(world, runs);
  const core::RibSurveyResult survey = pending_survey.get();
  section_table4(runs, survey);
  section_figure3(world, runs);
  section_figure5(world, survey);
  section_figure6();
  const bool figure7_agrees = section_figure7();
  section_figure8(world, runs);
  section_related_work(scale);
  section_ablation_prepend_order(world, ablations);
  section_ablation_pacing(ablations);
  section_ablation_vp_diversity(ablations);
  section_ablation_route_age(world, ablations);
  section_implications(world, pool);
  return figure7_agrees ? 0 : 1;
}
