#include "serve/request.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/assert.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "workload/bert.hpp"

namespace nova::serve {

namespace {

// Mixed sequence / KV-cache lengths around the baseline; the duplicated 1x
// weight keeps the nominal length dominant. The sampling bound is derived
// from the table itself (std::size) so editing the weights can never
// silently skew the distribution.
constexpr double kSeqScales[] = {0.25, 0.5, 1.0, 1.0, 2.0};

}  // namespace

std::vector<InferenceRequest> generate_poisson(int count,
                                               const TrafficProfile& profile,
                                               std::uint64_t seed) {
  NOVA_EXPECTS(count >= 0);
  NOVA_EXPECTS(profile.rate_rps > 0.0);
  NOVA_EXPECTS(profile.breakpoints >= 2);
  NOVA_EXPECTS(profile.base_seq_len >= 1);
  NOVA_EXPECTS(profile.decode_fraction >= 0.0 &&
               profile.decode_fraction <= 1.0);
  NOVA_EXPECTS(profile.base_kv_len >= 1);
  NOVA_EXPECTS(std::isfinite(profile.deadline_us) &&
               profile.deadline_us >= 0.0);
  NOVA_EXPECTS(profile.max_steps >= 0 && profile.max_steps <= kMaxGenSteps);
  NOVA_EXPECTS(!profile.workloads.empty());
  NOVA_EXPECTS(!profile.functions.empty());

  Rng rng(seed);
  std::vector<InferenceRequest> requests;
  requests.reserve(static_cast<std::size_t>(count));
  double clock_us = 0.0;
  const double mean_gap_us = 1e6 / profile.rate_rps;
  for (int id = 0; id < count; ++id) {
    // Exponential inter-arrival gap: -ln(U) * mean, with U in (0, 1].
    const double u = 1.0 - rng.next_double();
    clock_us += -std::log(u) * mean_gap_us;

    InferenceRequest req;
    req.id = id;
    req.arrival_us = clock_us;
    req.workload = profile.workloads[static_cast<std::size_t>(
        rng.next_below(profile.workloads.size()))];
    req.function = profile.functions[static_cast<std::size_t>(
        rng.next_below(profile.functions.size()))];
    req.breakpoints = profile.breakpoints;
    const double scale = kSeqScales[static_cast<std::size_t>(
        rng.next_below(std::size(kSeqScales)))];
    req.seq_len = std::max(
        8, static_cast<int>(std::lround(profile.base_seq_len * scale)));
    // Phase draw AFTER the shape draws; decode_fraction == 0 skips it
    // entirely, reproducing the pre-decode all-prefill stream bit-for-bit.
    if (profile.decode_fraction > 0.0 &&
        rng.next_double() < profile.decode_fraction) {
      req.phase = pipeline::Phase::kDecode;
      const double kv_scale = kSeqScales[static_cast<std::size_t>(
          rng.next_below(std::size(kSeqScales)))];
      req.kv_len = std::max(
          1, static_cast<int>(std::lround(profile.base_kv_len * kv_scale)));
      req.seq_len = 1;  // one query token; volume scales with kv_len
    }
    // Generation-length draw AFTER the shape draws and gated exactly like
    // the phase draw: max_steps == 0 consumes no randomness, so legacy
    // profiles reproduce their streams bit for bit.
    if (profile.max_steps > 0) {
      const int gen = 1 + static_cast<int>(rng.next_below(
                              static_cast<std::size_t>(profile.max_steps)));
      req.gen_steps =
          req.phase == pipeline::Phase::kDecode ? gen - 1 : gen;
    }
    req.deadline_us = profile.deadline_us;
    requests.push_back(req);
  }
  return requests;
}

bool parse_trace(std::istream& in, std::vector<InferenceRequest>& out,
                 std::string& error) {
  out.clear();
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;

    // Split on ',' into stripped fields: 5 mandatory columns plus the
    // optional phase and kv_len columns of mixed prefill/decode traces,
    // the optional deadline_us column of SLO-carrying ones, and the
    // optional trailing steps column of multi-step generation traces.
    const auto strip = [](std::string& s) {
      const auto b = s.find_first_not_of(" \t\r");
      const auto e = s.find_last_not_of(" \t\r");
      s = b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
    };
    std::vector<std::string> fields;
    std::istringstream splitter(line);
    std::string field;
    while (std::getline(splitter, field, ',')) {
      strip(field);
      fields.push_back(field);
    }
    if (fields.size() < 5 || fields.size() > 9) {
      error = "trace line " + std::to_string(line_no) +
              ": expected 'arrival_us,workload,function,seq_len,"
              "breakpoints[,phase[,kv_len[,deadline_us[,steps]]]]'";
      return false;
    }

    InferenceRequest req;
    if (!parse_full(fields[0], req.arrival_us) ||
        !parse_full(fields[3], req.seq_len) ||
        !parse_full(fields[4], req.breakpoints)) {
      error = "trace line " + std::to_string(line_no) +
              ": malformed number in '" + line + "'";
      return false;
    }
    req.workload = fields[1];
    if (!workload::by_name(fields[1], 8).has_value()) {
      error = "trace line " + std::to_string(line_no) +
              ": unknown workload '" + fields[1] + "'";
      return false;
    }
    const auto fn = approx::from_string(fields[2]);
    if (!fn) {
      error = "trace line " + std::to_string(line_no) +
              ": unknown function '" + fields[2] + "'";
      return false;
    }
    req.function = *fn;
    if (fields.size() >= 6) {
      const auto phase = pipeline::phase_from_string(fields[5]);
      if (!phase) {
        error = "trace line " + std::to_string(line_no) +
                ": unknown phase '" + fields[5] +
                "' (expected prefill or decode)";
        return false;
      }
      req.phase = *phase;
    }
    if (fields.size() >= 7 && !parse_full(fields[6], req.kv_len)) {
      error = "trace line " + std::to_string(line_no) +
              ": malformed number in '" + line + "'";
      return false;
    }
    if (fields.size() >= 8 && !parse_full(fields[7], req.deadline_us)) {
      error = "trace line " + std::to_string(line_no) +
              ": malformed number in '" + line + "'";
      return false;
    }
    int steps = -1;  // total generation length; -1 = column absent
    if (fields.size() == 9 && !parse_full(fields[8], steps)) {
      error = "trace line " + std::to_string(line_no) +
              ": malformed number in '" + line + "'";
      return false;
    }
    // NaN/inf arrivals would poison the sort and every latency statistic;
    // a decode request without its cache length (or a prefill request
    // claiming one) would mis-price silently.
    if (!std::isfinite(req.arrival_us) || req.arrival_us < 0.0 ||
        req.seq_len < 1) {
      error = "trace line " + std::to_string(line_no) +
              ": arrival must be finite and >= 0, seq_len >= 1";
      return false;
    }
    if (req.breakpoints < 2 || req.breakpoints > kMaxBreakpoints) {
      error = "trace line " + std::to_string(line_no) +
              ": breakpoints must be in [2, " +
              std::to_string(kMaxBreakpoints) + "]";
      return false;
    }
    if (req.phase == pipeline::Phase::kDecode && req.kv_len < 1) {
      error = "trace line " + std::to_string(line_no) +
              ": decode requests need a kv_len column >= 1";
      return false;
    }
    if (req.phase == pipeline::Phase::kPrefill && req.kv_len != 0) {
      error = "trace line " + std::to_string(line_no) +
              ": prefill requests must not carry a non-zero kv_len";
      return false;
    }
    // A NaN/inf/negative deadline cannot be compared against a projected
    // finish; reject it here the same way incoherent phases are.
    if (!std::isfinite(req.deadline_us) || req.deadline_us < 0.0) {
      error = "trace line " + std::to_string(line_no) +
              ": deadline_us must be finite and >= 0 (0 = no deadline)";
      return false;
    }
    // The steps column counts the request's WHOLE generation, so a decode
    // line claiming 0 steps contradicts its own existence (it IS a decode
    // step), and a negative or absurd count would wedge the dispatch loop.
    if (steps >= 0) {
      if (steps > kMaxGenSteps) {
        error = "trace line " + std::to_string(line_no) +
                ": steps must be <= " + std::to_string(kMaxGenSteps);
        return false;
      }
      if (req.phase == pipeline::Phase::kDecode) {
        if (steps < 1) {
          error = "trace line " + std::to_string(line_no) +
                  ": decode requests need steps >= 1 (the request's own "
                  "decode step counts toward its generation length)";
          return false;
        }
        req.gen_steps = steps - 1;
      } else {
        req.gen_steps = steps;  // tokens decoded after the prefill
      }
    } else if (fields.size() == 9) {
      error = "trace line " + std::to_string(line_no) +
              ": steps must be >= 0 (total generation length)";
      return false;
    }
    if (!kv_chain_fits(req)) {
      error = "trace line " + std::to_string(line_no) +
              ": the decode chain overflows: seq_len (prefill) or kv_len "
              "(decode) plus the generation length must stay <= " +
              std::to_string(pipeline::max_graph_len(pipeline::Phase::kDecode));
      return false;
    }
    if (!prompt_fits(req)) {
      error = "trace line " + std::to_string(line_no) +
              ": the prompt overflows its operator graph's counts: seq_len "
              "must stay <= " +
              std::to_string(pipeline::max_graph_len(pipeline::Phase::kPrefill));
      return false;
    }
    out.push_back(req);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const InferenceRequest& a, const InferenceRequest& b) {
                     return a.arrival_us < b.arrival_us;
                   });
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].id = static_cast<int>(i);
  }
  return true;
}

bool load_trace(const std::string& path, std::vector<InferenceRequest>& out,
                std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open trace file '" + path + "'";
    return false;
  }
  return parse_trace(in, out, error);
}

}  // namespace nova::serve
