// Reproduces the Section V.A scalability analysis: "a maximum of 10 routers
// with clockless repeaters placed 1 mm apart can be traversed at 1.5 GHz
// clock"; beyond that the broadcast takes multiple cycles. Sweeps clock
// frequency and line length through the repeater timing model and emits
// both series as machine-readable BENCH_scalability.json.
#include <cstdio>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/table.hpp"
#include "hwmodel/timing.hpp"

int main() {
  using namespace nova;
  using namespace nova::hw;

  std::puts("Section V.A scalability reproduction: clockless-repeater line "
            "timing (1 mm router spacing)\n");

  std::vector<json::Object> hops_rows;
  Table hops("Max single-cycle hops vs clock");
  hops.set_header({"clock (MHz)", "hops/cycle", "10-router line single "
                   "cycle?"});
  const std::vector<double> clocks = {240.0, 480.0, 700.0, 1000.0, 1400.0,
                                      1500.0, 2000.0, 2800.0};
  for (const double mhz : clocks) {
    const int reach = max_hops_per_cycle(tech22(), mhz, 1.0);
    const LineNocLayout ten{10, 1.0};
    const bool single = broadcast_latency_cycles(tech22(), mhz, ten) == 1;
    hops.add_row({Table::num(mhz, 0), std::to_string(reach),
                  single ? "yes" : "no"});
    hops_rows.push_back(json::Object()
                            .num("clock_mhz", mhz, 0)
                            .num("hops_per_cycle", reach)
                            .flag("ten_router_single_cycle", single));
  }
  hops.print();

  std::puts("");
  Table lines("Broadcast latency vs line length @1.5 GHz");
  lines.set_header({"routers", "latency (cycles)",
                    "max single-cycle clock (MHz)"});
  std::vector<json::Object> line_rows;
  for (const int routers : {2, 4, 8, 10, 11, 16, 20, 32}) {
    const LineNocLayout layout{routers, 1.0};
    const int latency = broadcast_latency_cycles(tech22(), 1500.0, layout);
    const double max_clock = max_single_cycle_freq_mhz(tech22(), layout);
    lines.add_row({std::to_string(routers), std::to_string(latency),
                   Table::num(max_clock, 0)});
    line_rows.push_back(json::Object()
                            .num("routers", routers)
                            .num("latency_cycles", latency)
                            .num("max_single_cycle_mhz", max_clock, 0));
  }
  lines.print();

  std::printf("\nKey anchor: at 1500 MHz the model reaches %d hops per "
              "cycle, so a 10-router line (10 segments including "
              "injection) is the largest single-cycle deployment (paper: "
              "10); an 11-router line needs %d cycles.\n",
              max_hops_per_cycle(tech22(), 1500.0, 1.0),
              broadcast_latency_cycles(tech22(), 1500.0,
                                       LineNocLayout{11, 1.0}));

  if (!json::write_file("BENCH_scalability.json",
                        json::Object()
                            .list("hops_vs_clock", hops_rows)
                            .list("broadcast_vs_routers", line_rows)
                            .document())) {
    std::fputs("bench_scalability: cannot write BENCH_scalability.json\n",
               stderr);
    return 2;
  }
  std::puts("\nwrote BENCH_scalability.json");
  return 0;
}
