// ROV deployment measurement (§2.3 lineage: Cartwright-Cox's RPKI study,
// whose passive-VP pings the paper's method descends from — including the
// criticism that a VP can look ROV-protected because of filtering
// *upstream* of it).
//
// Method: announce an RPKI-valid prefix and an RPKI-invalid one from the
// same origin; a passive VP that answers probes from the valid prefix but
// not the invalid one is behind Route Origin Validation. The example
// plants ROV at some ASes, runs the measurement, and then demonstrates
// the §2.3 criticism: non-ROV customers of ROV transits are
// indistinguishable from ROV deployers.
#include <cstdio>

#include "bgp/rpki.h"
#include "dataplane/fib.h"
#include "topology/ecosystem.h"

int main() {
  using namespace re;

  topo::EcosystemParams params;
  params = params.scaled(0.2);
  params.seed = 20250529;
  const topo::Ecosystem eco = topo::Ecosystem::generate(params);
  bgp::BgpNetwork network(13);
  eco.build_network(network);

  // ROAs: the valid prefix is authorized for our origin; the invalid one
  // is authorized for someone else entirely (a hijack-shaped announcement).
  const net::Prefix valid = *net::Prefix::parse("198.18.10.0/24");
  const net::Prefix invalid = *net::Prefix::parse("198.18.20.0/24");
  const net::Asn origin = eco.measurement().commodity_origin;
  bgp::RoaTable roas;
  roas.add({valid, 24, origin});
  roas.add({invalid, 24, net::Asn{65535}});  // not our origin -> Invalid

  // Plant ROV: every tier-1 except Lumen (the origin's own provider), and
  // a third of the transits.
  std::size_t rov_transits = 0;
  for (const net::Asn tier1 : eco.tier1s()) {
    if (tier1 == eco.lumen()) continue;
    network.speaker(tier1)->enable_rov(&roas);
  }
  for (std::size_t i = 0; i < eco.transits().size(); i += 3) {
    network.speaker(eco.transits()[i])->enable_rov(&roas);
    ++rov_transits;
  }

  network.announce(origin, valid);
  network.announce(origin, invalid);
  network.run_to_convergence();

  dataplane::CatchmentFib valid_fib(network, valid, {origin});
  dataplane::CatchmentFib invalid_fib(network, invalid, {origin});
  valid_fib.refresh();
  invalid_fib.refresh();

  std::size_t both = 0, protected_vps = 0, neither = 0;
  for (const net::Asn member : eco.members()) {
    const bool valid_ok = valid_fib.attribution(member).reachable;
    const bool invalid_ok = invalid_fib.attribution(member).reachable;
    if (valid_ok && invalid_ok) {
      ++both;
    } else if (valid_ok && !invalid_ok) {
      ++protected_vps;  // the ROV signature
    } else {
      ++neither;
    }
  }

  std::printf(
      "ROV study over %zu member ASes (ROV planted at %zu tier-1s and %zu"
      " transits):\n",
      eco.members().size(), eco.tier1s().size() - 1, rov_transits);
  std::printf("  reach valid AND invalid prefix:  %zu (no ROV on path)\n", both);
  std::printf("  reach valid, NOT invalid:        %zu (ROV somewhere on path)\n",
              protected_vps);
  std::printf("  reach neither:                   %zu\n\n", neither);

  // The §2.3 criticism, quantified: how many "protected" members deployed
  // ROV themselves? None — every member's protection comes from an
  // upstream filter.
  std::size_t self_deployed = 0;
  for (const net::Asn member : eco.members()) {
    if (network.speaker(member)->rov_enabled()) ++self_deployed;
  }
  std::printf(
      "members that deployed ROV themselves: %zu — every protected VP\n"
      "inherits filtering from an upstream, so (as §2.3 notes, citing the\n"
      "criticism of ping-based ROV studies) the beneficiary of ROV is not\n"
      "necessarily the deployer. The R&E paper sidesteps this by design:\n"
      "it measures which route traffic takes, 'not concerned with\n"
      "underlying causes.'\n",
      self_deployed);
  return 0;
}
