#include "cli/options.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "accel/accelerator.hpp"
#include "approx/functions.hpp"
#include "common/parse.hpp"
#include "serve/request.hpp"
#include "workload/bert.hpp"

namespace nova::cli {

namespace {

/// A numeric member and the range its flag's value must lie in. The
/// bounds keep derived quantities (e.g. neurons_per_router * waves)
/// comfortably inside int range.
template <typename T>
struct Bounded {
  T Options::*member;
  T min;
  T max;
};
// Spelled out for compilers without aggregate deduction (Clang before 17).
template <typename T>
Bounded(T Options::*, T, T) -> Bounded<T>;

/// One flag: the Options member it writes, whose type picks the parse,
/// and the switches it also turns on. A bool member is a switch and takes
/// no value; a string is a name that run() resolves; the seed takes any
/// unsigned 64-bit integer.
struct Flag {
  std::string_view name;
  std::variant<bool Options::*, std::string Options::*,
               std::uint64_t Options::*, Bounded<int>, Bounded<double>>
      member;
  std::array<bool Options::*, 2> implies{};
};

/// Every flag but --help/-h and --list, in --help order.
constexpr Flag kFlags[] = {
    {"--workload", &Options::workload, {&Options::workload_set}},
    {"--seq", Bounded{&Options::seq_len, 1, 1 << 20}},
    {"--breakpoints",
     Bounded{&Options::breakpoints, 2, serve::kMaxBreakpoints}},
    {"--pairs-per-flit", Bounded{&Options::pairs_per_flit, 1, 4096}},
    {"--routers", Bounded{&Options::routers, 1, 4096}},
    {"--host", &Options::host},
    {"--function", &Options::function, {&Options::function_set}},
    {"--pipeline", &Options::pipeline},
    {"--decode", &Options::decode},
    {"--verify", &Options::verify},
    {"--kv-len", Bounded{&Options::kv_len, 1, 1 << 20}},
    {"--fusion", &Options::fusion},
    {"--waves", Bounded{&Options::waves, 1, kMaxWaves}},
    {"--seed", &Options::seed},
    {"--csv", &Options::csv},
    {"--no-sim", &Options::no_sim},
    {"--serve", &Options::serve},
    {"--requests", Bounded{&Options::requests, 1, 1 << 20}},
    {"--rate", Bounded{&Options::rate_rps, 1e-3, 1e9}},
    {"--instances", Bounded{&Options::instances, 1, 4096}},
    {"--threads", Bounded{&Options::threads, 1, 256}},
    {"--batch", Bounded{&Options::max_batch, 1, 4096}},
    // A trace is only consumed by serving mode.
    {"--trace", &Options::trace_path, {&Options::serve}},
    {"--pricing", &Options::pricing},
    {"--surrogate-anchors", Bounded{&Options::surrogate_anchors, 2, 256}},
    {"--surrogate-tol", Bounded{&Options::surrogate_tol, 1e-6, 1.0}},
    {"--faults", &Options::faults, {&Options::serve}},
    {"--mtbf", Bounded{&Options::mtbf_us, 1.0, 1e12},
     {&Options::faults, &Options::serve}},
    {"--mttr", Bounded{&Options::mttr_us, 1.0, 1e12},
     {&Options::faults, &Options::serve}},
    {"--deadline", Bounded{&Options::deadline_us, 0.0, 1e12},
     {&Options::serve}},
    {"--max-retries", Bounded{&Options::max_retries, 0, 64},
     {&Options::serve}},
    {"--shed", Bounded{&Options::shed_us, 0.0, 1e12}, {&Options::serve}},
    {"--continuous", &Options::continuous, {&Options::serve}},
    {"--chunk-tokens", Bounded{&Options::chunk_tokens, 1, 1 << 20},
     {&Options::continuous, &Options::serve}},
    {"--max-steps", Bounded{&Options::max_steps, 0, serve::kMaxGenSteps},
     {&Options::serve}},
};

/// Sets a flag's member from its value `text`, or fills `error`.
bool set(Options& options, bool Options::*member, std::string_view,
         const std::string&, std::string&) {
  options.*member = true;
  return true;
}

bool set(Options& options, std::string Options::*member, std::string_view,
         const std::string& text, std::string&) {
  options.*member = text;
  return true;
}

bool set(Options& options, std::uint64_t Options::*member,
         std::string_view flag, const std::string& text, std::string& error) {
  if (!parse_full(text, options.*member)) {
    error = std::string(flag) + " expects an unsigned 64-bit integer, got '" +
            text + "'";
    return false;
  }
  return true;
}

/// The range test asks for membership in [min, max] rather than rejecting
/// values outside it: std::from_chars accepts "nan", and every comparison
/// with NaN is false.
template <typename T>
bool set(Options& options, Bounded<T> bounded, std::string_view flag,
         const std::string& text, std::string& error) {
  T value{};
  if (!parse_full(text, value) ||
      !(value >= bounded.min && value <= bounded.max)) {
    error = std::string(flag) + " expects " +
            (std::is_integral_v<T> ? "an integer" : "a number") + " in [" +
            std::to_string(bounded.min) + ", " + std::to_string(bounded.max) +
            "], got '" + text + "'";
    return false;
  }
  options.*bounded.member = value;
  return true;
}

/// Joins catalog items with `sep`, wrapping onto `indent`-prefixed
/// continuation lines so the usage text stays inside 79 columns.
std::string wrap_items(const std::vector<std::string>& items,
                       const char* sep, std::size_t width,
                       const std::string& indent) {
  std::string out;
  std::string line = indent;
  bool first_in_line = true;
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::string piece = items[i];
    if (i + 1 < items.size()) piece += sep;
    if (!first_in_line && line.size() + piece.size() > width) {
      while (!line.empty() && line.back() == ' ') line.pop_back();
      out += line;
      out += '\n';
      line = indent;
      first_in_line = true;
    }
    line += piece;
    first_in_line = false;
  }
  out += line;
  return out;
}

}  // namespace

std::string usage() {
  // The workload/host/function lists come from the resolver catalogs, so
  // --help can never drift from what actually parses (same sourcing as
  // --list).
  const std::string indent(21, ' ');
  std::vector<std::string> workloads;
  for (const auto& entry : workload::benchmark_catalog()) {
    workloads.emplace_back(entry.name);
  }
  std::vector<std::string> hosts;
  for (const auto& entry : accel::host_catalog()) {
    hosts.emplace_back(entry.name);
  }
  std::vector<std::string> functions;
  for (const auto fn : approx::all_functions()) {
    functions.emplace_back(approx::to_string(fn));
  }

  std::string text =
      "nova_sim -- NOVA attention-approximator simulation driver\n"
      "\n"
      "Evaluates the paper's BERT-family workloads on a host accelerator\n"
      "with a NOVA NoC vector unit: mapper schedule + timing validation,\n"
      "cycle-accurate NoC simulation, PWL accuracy, and the Fig 8-style\n"
      "runtime/energy table against the LUT baselines. With --serve, runs\n"
      "the batched inference-serving engine over a pool of simulated NOVA\n"
      "instances and reports latency percentiles and throughput.\n"
      "\n"
      "Usage: nova_sim [options]\n"
      "  --workload NAME    bert|all (all paper benchmarks) or one of\n";
  text += wrap_items(workloads, ", ", 74, indent);
  text += "   (default: {--workload})\n";
  text +=
      "  --seq N            sequence length            (default: {--seq})\n"
      "  --breakpoints N    PWL segments per lookup    (default: {--breakpoints})\n"
      "  --pairs-per-flit N NoC link width in (slope,bias) pairs per flit\n"
      "                     (paper: 8 = 257 bits)      (default: {--pairs-per-flit})\n"
      "  --routers N        override host router count (default: host config)\n";
  text += "  --host NAME        " + wrap_items(hosts, "|", 74, "");
  text += "    (default: {--host})\n";
  text += "  --function NAME    one of the catalog below (default: {--function})\n";
  text += wrap_items(functions, "|", 74, indent);
  text += "\n";
  text +=
      "  --pipeline         print the attention-pipeline operator-graph\n"
      "                     timeline per workload: per-node Gantt with\n"
      "                     fabric/vector overlap and cycle/energy\n"
      "                     attribution\n"
      "  --decode           print the prefill-vs-decode attribution table\n"
      "                     per workload (one query token vs a --kv-len KV\n"
      "                     cache); with --serve, generate pure decode\n"
      "                     traffic instead of the mixed default\n"
      "  --verify           run the OpGraph static verifier (structure,\n"
      "                     phase, shape, conservation passes + cycle\n"
      "                     reconciliation) over the selected workloads'\n"
      "                     prefill and decode graphs; non-zero exit on\n"
      "                     error diagnostics (full sweep: nova_lint)\n"
      "  --kv-len N         KV-cache length for --decode and the decode\n"
      "                     side of serve traffic    (default: {--kv-len})\n"
      "  --fusion MODE      operator-graph fusion: off (builder graphs,\n"
      "                     byte-identical to pre-fusion output), on (fuse\n"
      "                     attention + GEMM epilogues unconditionally), or\n"
      "                     auto (price all 8 rewrite masks per shape and\n"
      "                     take the fastest). Applies to --pipeline (adds\n"
      "                     the tuner table) and to --serve admission\n"
      "                     pricing                  (default: {--fusion})\n"
      "  --waves N          PE waves in the cycle sim  (default: {--waves})\n"
      "  --seed N           RNG seed for synthetic inputs and serve traffic\n"
      "                     (default: {--seed})\n"
      "  --csv              emit tables as CSV instead of ASCII\n"
      "  --no-sim           skip the cycle-accurate NoC simulation\n"
      "  --list             list workloads, hosts and functions, then exit\n"
      "  --help             show this text\n"
      "\n"
      "Serving mode:\n"
      "  --serve            run the batched inference-serving engine\n"
      "  --requests N       Poisson-generated requests  (default: {--requests})\n"
      "  --rate R           mean arrival rate, req/s    (default: {--rate})\n"
      "  --instances N      simulated NOVA instances    (default: {--instances})\n"
      "  --threads N        pricing worker threads; results are identical\n"
      "                     for every value             (default: {--threads})\n"
      "  --batch N          max requests fused per dispatch (default: {--batch})\n"
      "  --trace FILE       replay 'arrival_us,workload,function,seq_len,\n"
      "                     breakpoints' lines instead of Poisson arrivals\n"
      "                     (implies --serve); --workload/--function narrow\n"
      "                     the generated traffic mix\n"
      "  --pricing MODE     admission pricing: exact (cycle-accurate\n"
      "                     calibration of every distinct shape),\n"
      "                     surrogate (PWL cost model anchored by a few\n"
      "                     such calibrations), or hybrid\n"
      "                     (surrogate + sampled exact reconciliation;\n"
      "                     non-zero exit on drift)   (default: {--pricing})\n"
      "  --surrogate-anchors N  max anchor runs per (workload, function,\n"
      "                     breakpoints, phase) class  (default: {--surrogate-anchors})\n"
      "  --surrogate-tol X  hybrid reconciliation tolerance, relative\n"
      "                     service-cycle error        (default: {--surrogate-tol})\n"
      "\n"
      "Failure-aware serving (each flag implies --serve):\n"
      "  --faults           inject a seeded exponential fault plan: each\n"
      "                     instance alternates exp(MTBF) up-time and\n"
      "                     exp(MTTR) outages, drawn per instance from\n"
      "                     --seed; prints the fault timeline table\n"
      "  --mtbf US          mean time between failures (default: {--mtbf};\n"
      "                     implies --faults)\n"
      "  --mttr US          mean time to recover       (default: {--mttr};\n"
      "                     implies --faults)\n"
      "  --deadline US      SLO budget stamped on generated requests,\n"
      "                     relative to arrival; hopeless requests shed at\n"
      "                     admission, late ones count as deadline-miss\n"
      "                     (default: {--deadline} = best-effort; trace files carry\n"
      "                     their own trailing deadline_us column)\n"
      "  --max-retries N    retry budget for batches killed mid-service by\n"
      "                     an outage, with capped exponential backoff and\n"
      "                     deterministic jitter       (default: {--max-retries})\n"
      "  --shed US          overload threshold on projected queue wait:\n"
      "                     past it the batch cap shrinks toward latency,\n"
      "                     and best-effort work sheds at 4x the threshold\n"
      "                     (default: {--shed} = disabled)\n"
      "\n"
      "Continuous batching (--continuous/--chunk-tokens imply --serve):\n"
      "  --continuous       iteration-level scheduling: generations become\n"
      "                     sessions of kv-growing decode steps, prefills\n"
      "                     split into chunks that interleave with decode,\n"
      "                     and an outage preempts only the step in flight\n"
      "                     (the session resumes with its KV cache intact)\n"
      "  --chunk-tokens N   prefill chunk size in prompt tokens under\n"
      "                     --continuous              (default: {--chunk-tokens})\n"
      "  --max-steps N      generation length drawn per generated request,\n"
      "                     uniform in [1, N]; 0 keeps classic single-step\n"
      "                     traffic; trace files carry their own trailing\n"
      "                     steps column              (default: {--max-steps})\n"
      "\n"
      "Examples:\n"
      "  nova_sim --workload bert --seq 128\n"
      "  nova_sim --workload bert-tiny --decode --kv-len 1024\n"
      "  nova_sim --workload mobilebert-base --seq 1024 --host tpuv3\n"
      "  nova_sim --breakpoints 32 --pairs-per-flit 4 --function exp\n"
      "  nova_sim --serve --requests 1000 --instances 4 --threads 4 --seed 7\n"
      "  nova_sim --serve --faults --mtbf 5000 --mttr 1000 --deadline 2000\n"
      "  nova_sim --continuous --max-steps 16 --chunk-tokens 64 "
      "--pricing hybrid\n"
      "  nova_sim --serve --fusion auto --pricing hybrid --requests 500\n";
  // Each {--flag} above shows that flag's member in a default Options.
  const Options defaults;
  for (const Flag& flag : kFlags) {
    std::string placeholder = "{";
    placeholder.append(flag.name).push_back('}');
    const auto at = text.find(placeholder);
    if (at == std::string::npos) continue;
    std::ostringstream shown;
    std::visit([&](auto member) {
      if constexpr (std::is_class_v<decltype(member)>) {
        shown << defaults.*member.member;  // a Bounded number
      } else {
        shown << defaults.*member;
      }
    }, flag.member);
    text.replace(at, placeholder.size(), shown.str());
  }
  return text;
}

bool parse_options(int argc, const char* const* argv, Options& options,
                   std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string name = argv[i];
    // --help and --list end parsing where they stand.
    if (name == "--help" || name == "-h") {
      options.show_help = true;
      return true;
    }
    if (name == "--list") {
      options.show_list = true;
      return true;
    }
    const Flag* const flag =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const Flag& row) { return row.name == name; });
    if (flag == std::end(kFlags)) {
      error = "unknown flag '" + name + "'";
      return false;
    }
    std::string value;
    if (!std::holds_alternative<bool Options::*>(flag->member)) {
      if (i + 1 >= argc) {
        error = name + " expects a value";
        return false;
      }
      value = argv[++i];
    }
    if (!std::visit([&](auto member) {
          return set(options, member, flag->name, value, error);
        }, flag->member)) {
      return false;
    }
    for (bool Options::*implied : flag->implies) {
      if (implied != nullptr) options.*implied = true;
    }
  }
  return true;
}

}  // namespace nova::cli
