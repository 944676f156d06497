// Structured diagnostics for the OpGraph static verifier.
//
// pipeline::validate used to answer "is this graph sane?" with bool + one
// reason string -- fine for a single ad-hoc reject-list, useless for a
// compiler-grade pass pipeline where a rewrite must be able to ask WHICH
// invariant broke, on WHICH node, and how badly. A Diagnostic is the
// machine-readable unit the verifier passes emit instead: a severity, a
// stable check id (the thing negative tests and nova_lint key on), the
// offending node (index + kind + label; -1 for graph-level findings), and a
// human-readable message. A DiagnosticReport collects them per run;
// `ok()` means "no error-severity findings", the contract every caller
// (builders, executor entry, nova_lint, CI) gates on.
#pragma once

#include <string>
#include <vector>

#include "pipeline/op_graph.hpp"

namespace nova::analysis {

/// How bad a finding is. Errors make a graph unusable (run_passes callers
/// gate on them); warnings flag suspicious-but-executable constructs;
/// notes carry context (e.g. "shape checks skipped: adapted graph").
enum class Severity { kNote, kWarning, kError };

[[nodiscard]] const char* to_string(Severity severity);

/// Stable identities of every verifier check. Tests assert on these (not on
/// message text), nova_lint reports them, and run_passes documents which
/// pass owns which prefix: structure.* / phase.* / shape.* / conserve.*.
/// Adding a check = one enum value + one to_string row + the pass logic
/// (see README "Static analysis & verification").
enum class CheckId {
  // structure pass
  kStructLayerRepeat,    ///< structure.layer-repeat: layer_repeat < 1
  kStructDepRange,       ///< structure.dep-range: dangling edge (dep index
                         ///< outside [0, nodes))
  kStructTopoOrder,      ///< structure.topo-order: dep not a strict
                         ///< predecessor (forward edge / self edge -- the
                         ///< encoding a cycle would need)
  kStructDepDuplicate,   ///< structure.dep-duplicate: same producer listed
                         ///< twice
  kStructUnreachable,    ///< structure.unreachable: node with no producers
                         ///< AND no consumers in a multi-node graph
  kStructResourceClass,  ///< structure.resource-class: fields of another
                         ///< kind's resource class are set (e.g. a GEMM
                         ///< carrying softmax rows, a vector op carrying a
                         ///< fabric repeat) -- silently ignored volume is a
                         ///< builder bug
  kStructVolume,         ///< structure.volume: non-positive per-kind volume
  kStructFusedShape,     ///< structure.fused-shape: a fused node's internal
                         ///< coherence invariants are broken (attention:
                         ///< rows != repeat * m or row_len != n; gelu
                         ///< epilogue: elements != m * n * repeat;
                         ///< layernorm epilogue: rows != m)

  // phase pass
  kPhaseKvLen,      ///< phase.kv-len: decode graph without kv_len >= 1, or
                    ///< prefill graph carrying kv_len != 0

  // shape dataflow pass (config expansions only)
  kShapeConfig,     ///< shape.config: the embedded BertConfig is incoherent
  kShapeChain,      ///< shape.chain: node sequence diverges from the
                    ///< canonical encoder chain (count/kind/label/layers)
  kShapeGemm,       ///< shape.gemm: declared m/k/n/repeat != re-derived
  kShapeSoftmax,    ///< shape.softmax: declared rows/row_len != re-derived
  kShapeGelu,       ///< shape.gelu: declared elements != re-derived
  kShapeLayernorm,  ///< shape.layernorm: declared rows != re-derived
  kShapeFused,      ///< shape.fused: a fused node's declared volumes do not
                    ///< match the canonical-chain constituents it replaces

  // conservation pass (config expansions only)
  kConserveMacs,           ///< conserve.macs
  kConserveApproxOps,      ///< conserve.approx-ops
  kConserveSoftmaxRows,    ///< conserve.softmax-rows
  kConserveGeluElements,   ///< conserve.gelu-elements
  kConserveLayernormRows,  ///< conserve.layernorm-rows

  // cycle reconciliation (reconcile_cycles, host-specific)
  kConserveCycles,  ///< conserve.cycles: serial executor totals diverge
                    ///< from the executor-free closed-form reference
};

/// Kebab-case id string ("structure.dep-range"), stable across releases:
/// nova_lint reports and CI greps key on it.
[[nodiscard]] const char* to_string(CheckId check);

/// One verifier finding.
struct Diagnostic {
  Severity severity = Severity::kError;
  CheckId check = CheckId::kStructLayerRepeat;
  /// Offending node index into OpGraph::nodes; -1 for graph-level findings.
  int node = -1;
  /// Kind/label of the offending node (meaningful when node >= 0).
  pipeline::OpKind node_kind = pipeline::OpKind::kGemm;
  std::string node_label;
  std::string message;

  /// "error [shape.softmax] node 2 (softmax 'attn-softmax'): ..." -- the
  /// one-line rendering nova_lint and the CLI print.
  [[nodiscard]] std::string to_string() const;
};

/// All findings of one verifier run, in pass order.
struct DiagnosticReport {
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] int errors() const;
  [[nodiscard]] int warnings() const;
  /// No error-severity findings (warnings/notes do not fail a graph).
  [[nodiscard]] bool ok() const { return errors() == 0; }
  /// True when any finding carries `check` (any severity).
  [[nodiscard]] bool has(CheckId check) const;
  /// One line per finding; empty string for a clean report.
  [[nodiscard]] std::string to_string() const;

  void add(Severity severity, CheckId check, std::string message);
  void add(Severity severity, CheckId check, const pipeline::OpGraph& graph,
           int node, std::string message);
  /// Appends every finding of `other` (pass composition).
  void merge(DiagnosticReport&& other);
};

}  // namespace nova::analysis
