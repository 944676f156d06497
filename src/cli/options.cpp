#include "cli/options.hpp"

#include <vector>

#include "accel/accelerator.hpp"
#include "approx/functions.hpp"
#include "common/parse.hpp"
#include "serve/request.hpp"
#include "workload/bert.hpp"

namespace nova::cli {

namespace {

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

/// Parses a bounded integer flag value. Bounds keep derived quantities
/// (e.g. neurons_per_router * waves) comfortably inside int range.
bool parse_int(const std::string& flag, const char* text, int min_value,
               int max_value, int& out, std::string& error) {
  int value = 0;
  if (!parse_full(std::string(text), value) || value < min_value ||
      value > max_value) {
    error = flag + " expects an integer in [" + std::to_string(min_value) +
            ", " + std::to_string(max_value) + "], got '" + text + "'";
    return false;
  }
  out = value;
  return true;
}

/// Parses a full-range unsigned 64-bit flag value (seeds).
bool parse_u64(const std::string& flag, const char* text, std::uint64_t& out,
               std::string& error) {
  std::uint64_t value = 0;
  if (!parse_full(std::string(text), value)) {
    error = flag + " expects an unsigned 64-bit integer, got '" +
            std::string(text) + "'";
    return false;
  }
  out = value;
  return true;
}

/// Parses a positive bounded double flag value (rates). The range test
/// asks for membership in [min, max] rather than rejecting values outside
/// it: std::from_chars accepts "nan", and every comparison with NaN is
/// false.
bool parse_double(const std::string& flag, const char* text, double min_value,
                  double max_value, double& out, std::string& error) {
  double value = 0.0;
  if (!parse_full(std::string(text), value) ||
      !(value >= min_value && value <= max_value)) {
    error = flag + " expects a number in [" + std::to_string(min_value) +
            ", " + std::to_string(max_value) + "], got '" + text + "'";
    return false;
  }
  out = value;
  return true;
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
  text += "   (default: bert)\n";
  text +=
      "  --seq N            sequence length            (default: 128)\n"
      "  --breakpoints N    PWL segments per lookup    (default: 16)\n"
      "  --pairs-per-flit N NoC link width in (slope,bias) pairs per flit\n"
      "                     (paper: 8 = 257 bits)      (default: 8)\n"
      "  --routers N        override host router count (default: host config)\n";
  text += "  --host NAME        " + wrap_items(hosts, "|", 74, "");
  text += "    (default: tpuv4)\n";
  text += "  --function NAME    one of the catalog below (default: gelu)\n";
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
      "                     side of serve traffic    (default: 512)\n"
      "  --fusion MODE      operator-graph fusion: off (builder graphs,\n"
      "                     byte-identical to pre-fusion output), on (fuse\n"
      "                     attention + GEMM epilogues unconditionally), or\n"
      "                     auto (price all 8 rewrite masks per shape and\n"
      "                     take the fastest). Applies to --pipeline (adds\n"
      "                     the tuner table) and to --serve admission\n"
      "                     pricing                  (default: off)\n"
      "  --waves N          PE waves in the cycle sim  (default: 4)\n"
      "  --seed N           RNG seed for synthetic inputs and serve traffic\n"
      "                     (default: 42)\n"
      "  --csv              emit tables as CSV instead of ASCII\n"
      "  --no-sim           skip the cycle-accurate NoC simulation\n"
      "  --list             list workloads, hosts and functions, then exit\n"
      "  --help             show this text\n"
      "\n"
      "Serving mode:\n"
      "  --serve            run the batched inference-serving engine\n"
      "  --requests N       Poisson-generated requests  (default: 256)\n"
      "  --rate R           mean arrival rate, req/s    (default: 500000)\n"
      "  --instances N      simulated NOVA instances    (default: 2)\n"
      "  --threads N        pricing worker threads; results are identical\n"
      "                     for every value             (default: 1)\n"
      "  --batch N          max requests fused per dispatch (default: 8)\n"
      "  --trace FILE       replay 'arrival_us,workload,function,seq_len,\n"
      "                     breakpoints' lines instead of Poisson arrivals\n"
      "                     (implies --serve); --workload/--function narrow\n"
      "                     the generated traffic mix\n"
      "  --pricing MODE     admission pricing: exact (cycle-accurate\n"
      "                     calibration of every distinct shape),\n"
      "                     surrogate (PWL cost model anchored by a few\n"
      "                     such calibrations), or hybrid\n"
      "                     (surrogate + sampled exact reconciliation;\n"
      "                     non-zero exit on drift)   (default: exact)\n"
      "  --surrogate-anchors N  max anchor runs per (workload, function,\n"
      "                     breakpoints, phase) class  (default: 8)\n"
      "  --surrogate-tol X  hybrid reconciliation tolerance, relative\n"
      "                     service-cycle error        (default: 0.02)\n"
      "\n"
      "Failure-aware serving (each flag implies --serve):\n"
      "  --faults           inject a seeded exponential fault plan: each\n"
      "                     instance alternates exp(MTBF) up-time and\n"
      "                     exp(MTTR) outages, drawn per instance from\n"
      "                     --seed; prints the fault timeline table\n"
      "  --mtbf US          mean time between failures (default: 20000;\n"
      "                     implies --faults)\n"
      "  --mttr US          mean time to recover       (default: 2000;\n"
      "                     implies --faults)\n"
      "  --deadline US      SLO budget stamped on generated requests,\n"
      "                     relative to arrival; hopeless requests shed at\n"
      "                     admission, late ones count as deadline-miss\n"
      "                     (default: 0 = best-effort; trace files carry\n"
      "                     their own trailing deadline_us column)\n"
      "  --max-retries N    retry budget for batches killed mid-service by\n"
      "                     an outage, with capped exponential backoff and\n"
      "                     deterministic jitter       (default: 3)\n"
      "  --shed US          overload threshold on projected queue wait:\n"
      "                     past it the batch cap shrinks toward latency,\n"
      "                     and best-effort work sheds at 4x the threshold\n"
      "                     (default: 0 = disabled)\n"
      "\n"
      "Continuous batching (--continuous/--chunk-tokens imply --serve):\n"
      "  --continuous       iteration-level scheduling: generations become\n"
      "                     sessions of kv-growing decode steps, prefills\n"
      "                     split into chunks that interleave with decode,\n"
      "                     and an outage preempts only the step in flight\n"
      "                     (the session resumes with its KV cache intact)\n"
      "  --chunk-tokens N   prefill chunk size in prompt tokens under\n"
      "                     --continuous              (default: 64)\n"
      "  --max-steps N      generation length drawn per generated request,\n"
      "                     uniform in [1, N]; 0 keeps classic single-step\n"
      "                     traffic; trace files carry their own trailing\n"
      "                     steps column              (default: 0)\n"
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
  return text;
}

bool parse_options(int argc, const char* const* argv, Options& options,
                   std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&](const char*& value) {
      if (i + 1 >= argc) {
        error = flag + " expects a value";
        return false;
      }
      value = argv[++i];
      return true;
    };

    const char* value = nullptr;
    if (flag == "--help" || flag == "-h") {
      options.show_help = true;
      return true;
    } else if (flag == "--list") {
      options.show_list = true;
      return true;
    } else if (flag == "--csv") {
      options.csv = true;
    } else if (flag == "--no-sim") {
      options.run_cycle_sim = false;
    } else if (flag == "--pipeline") {
      options.pipeline = true;
    } else if (flag == "--decode") {
      options.decode = true;
    } else if (flag == "--verify") {
      options.verify = true;
    } else if (flag == "--kv-len") {
      if (!next(value) ||
          !parse_int(flag, value, 1, 1 << 20, options.kv_len, error))
        return false;
    } else if (flag == "--serve") {
      options.serve = true;
    } else if (flag == "--workload") {
      if (!next(value)) return false;
      options.workload = value;
      options.workload_set = true;
    } else if (flag == "--host") {
      if (!next(value)) return false;
      options.host = value;
    } else if (flag == "--function") {
      if (!next(value)) return false;
      options.function = value;
      options.function_set = true;
    } else if (flag == "--trace") {
      if (!next(value)) return false;
      options.trace_path = value;
      options.serve = true;  // a trace is only consumed by serving mode
    } else if (flag == "--seq") {
      if (!next(value) ||
          !parse_int(flag, value, 1, 1 << 20, options.seq_len, error))
        return false;
    } else if (flag == "--breakpoints") {
      if (!next(value) ||
          !parse_int(flag, value, 2, serve::kMaxBreakpoints,
                     options.breakpoints, error))
        return false;
    } else if (flag == "--pairs-per-flit") {
      if (!next(value) ||
          !parse_int(flag, value, 1, 4096, options.pairs_per_flit, error))
        return false;
    } else if (flag == "--routers") {
      if (!next(value) ||
          !parse_int(flag, value, 1, 4096, options.routers, error))
        return false;
    } else if (flag == "--waves") {
      if (!next(value) ||
          !parse_int(flag, value, 1, 65536, options.waves, error))
        return false;
    } else if (flag == "--seed") {
      if (!next(value) || !parse_u64(flag, value, options.seed, error))
        return false;
    } else if (flag == "--requests") {
      if (!next(value) ||
          !parse_int(flag, value, 1, 1 << 20, options.requests, error))
        return false;
    } else if (flag == "--rate") {
      if (!next(value) ||
          !parse_double(flag, value, 1e-3, 1e9, options.rate_rps, error))
        return false;
    } else if (flag == "--instances") {
      if (!next(value) ||
          !parse_int(flag, value, 1, 4096, options.instances, error))
        return false;
    } else if (flag == "--threads") {
      if (!next(value) ||
          !parse_int(flag, value, 1, 256, options.threads, error))
        return false;
    } else if (flag == "--batch") {
      if (!next(value) ||
          !parse_int(flag, value, 1, 4096, options.max_batch, error))
        return false;
    } else if (flag == "--pricing") {
      if (!next(value)) return false;
      options.pricing = value;
    } else if (flag == "--fusion") {
      if (!next(value)) return false;
      options.fusion = value;
    } else if (flag == "--surrogate-anchors") {
      if (!next(value) ||
          !parse_int(flag, value, 2, 256, options.surrogate_anchors, error))
        return false;
    } else if (flag == "--surrogate-tol") {
      if (!next(value) ||
          !parse_double(flag, value, 1e-6, 1.0, options.surrogate_tol,
                        error))
        return false;
    } else if (flag == "--faults") {
      options.faults = true;
      options.serve = true;
    } else if (flag == "--mtbf") {
      if (!next(value) ||
          !parse_double(flag, value, 1.0, 1e12, options.mtbf_us, error))
        return false;
      options.faults = true;
      options.serve = true;
    } else if (flag == "--mttr") {
      if (!next(value) ||
          !parse_double(flag, value, 1.0, 1e12, options.mttr_us, error))
        return false;
      options.faults = true;
      options.serve = true;
    } else if (flag == "--deadline") {
      if (!next(value) ||
          !parse_double(flag, value, 0.0, 1e12, options.deadline_us, error))
        return false;
      options.serve = true;
    } else if (flag == "--max-retries") {
      if (!next(value) ||
          !parse_int(flag, value, 0, 64, options.max_retries, error))
        return false;
      options.serve = true;
    } else if (flag == "--shed") {
      if (!next(value) ||
          !parse_double(flag, value, 0.0, 1e12, options.shed_us, error))
        return false;
      options.serve = true;
    } else if (flag == "--continuous") {
      options.continuous = true;
      options.serve = true;
    } else if (flag == "--chunk-tokens") {
      if (!next(value) ||
          !parse_int(flag, value, 1, 1 << 20, options.chunk_tokens, error))
        return false;
      options.continuous = true;
      options.serve = true;
    } else if (flag == "--max-steps") {
      if (!next(value) ||
          !parse_int(flag, value, 0, serve::kMaxGenSteps, options.max_steps,
                     error))
        return false;
      options.serve = true;
    } else {
      error = "unknown flag '" + flag + "'";
      return false;
    }
  }
  return true;
}

}  // namespace nova::cli
