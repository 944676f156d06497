// Reproduces the Section V.A scalability analysis: "a maximum of 10 routers
// with clockless repeaters placed 1 mm apart can be traversed at 1.5 GHz
// clock"; beyond that the broadcast takes multiple cycles. Sweeps clock
// frequency and line length through the repeater timing model and emits
// both series as machine-readable BENCH_scalability.json.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "hwmodel/timing.hpp"

int main(int argc, char** argv) {
  using namespace nova;
  using namespace nova::hw;

  // --smoke is accepted like every bench's and recorded in the JSON; the
  // timing-model tables are cheap, so both runs print the same numbers.
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::puts("Section V.A scalability reproduction: clockless-repeater line "
            "timing (1 mm router spacing)\n");

  std::string json = std::string("{\n  \"smoke\": ") +
                     (smoke ? "true" : "false") + ",\n  \"hops_vs_clock\": [\n";
  Table hops("Max single-cycle hops vs clock");
  hops.set_header({"clock (MHz)", "hops/cycle", "10-router line single "
                   "cycle?"});
  const std::vector<double> clocks = {240.0, 480.0, 700.0, 1000.0, 1400.0,
                                      1500.0, 2000.0, 2800.0};
  for (std::size_t i = 0; i < clocks.size(); ++i) {
    const double mhz = clocks[i];
    const int reach = max_hops_per_cycle(tech22(), mhz, 1.0);
    const LineNocLayout ten{10, 1.0};
    const bool single = broadcast_latency_cycles(tech22(), mhz, ten) == 1;
    hops.add_row({Table::num(mhz, 0), std::to_string(reach),
                  single ? "yes" : "no"});
    json += "    {\"clock_mhz\": " + Table::num(mhz, 0) +
            ", \"hops_per_cycle\": " + std::to_string(reach) +
            ", \"ten_router_single_cycle\": " +
            (single ? "true" : "false") + "}" +
            (i + 1 < clocks.size() ? "," : "") + "\n";
  }
  hops.print();
  json += "  ],\n  \"broadcast_vs_routers\": [\n";

  std::puts("");
  Table lines("Broadcast latency vs line length @1.5 GHz");
  lines.set_header({"routers", "latency (cycles)",
                    "max single-cycle clock (MHz)"});
  const std::vector<int> router_counts = {2, 4, 8, 10, 11, 16, 20, 32};
  for (std::size_t i = 0; i < router_counts.size(); ++i) {
    const int routers = router_counts[i];
    const LineNocLayout layout{routers, 1.0};
    const int latency = broadcast_latency_cycles(tech22(), 1500.0, layout);
    const double max_clock = max_single_cycle_freq_mhz(tech22(), layout);
    lines.add_row({std::to_string(routers), std::to_string(latency),
                   Table::num(max_clock, 0)});
    json += "    {\"routers\": " + std::to_string(routers) +
            ", \"latency_cycles\": " + std::to_string(latency) +
            ", \"max_single_cycle_mhz\": " + Table::num(max_clock, 0) + "}" +
            (i + 1 < router_counts.size() ? "," : "") + "\n";
  }
  lines.print();
  json += "  ]\n}\n";

  std::printf("\nKey anchor: at 1500 MHz the model reaches %d hops per "
              "cycle, so a 10-router line (10 segments including "
              "injection) is the largest single-cycle deployment (paper: "
              "10); an 11-router line needs %d cycles.\n",
              max_hops_per_cycle(tech22(), 1500.0, 1.0),
              broadcast_latency_cycles(tech22(), 1500.0,
                                       LineNocLayout{11, 1.0}));

  FILE* out = std::fopen("BENCH_scalability.json", "w");
  if (out != nullptr) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::puts("\nwrote BENCH_scalability.json");
  } else {
    std::puts("\nwarning: could not write BENCH_scalability.json");
  }
  return 0;
}
