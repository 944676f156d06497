#include "analysis/diagnostics.hpp"

#include <utility>

namespace nova::analysis {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const char* to_string(CheckId check) {
  switch (check) {
    case CheckId::kStructLayerRepeat: return "structure.layer-repeat";
    case CheckId::kStructDepRange: return "structure.dep-range";
    case CheckId::kStructTopoOrder: return "structure.topo-order";
    case CheckId::kStructDepDuplicate: return "structure.dep-duplicate";
    case CheckId::kStructUnreachable: return "structure.unreachable";
    case CheckId::kStructResourceClass: return "structure.resource-class";
    case CheckId::kStructVolume: return "structure.volume";
    case CheckId::kStructFusedShape: return "structure.fused-shape";
    case CheckId::kPhaseKvLen: return "phase.kv-len";
    case CheckId::kShapeConfig: return "shape.config";
    case CheckId::kShapeChain: return "shape.chain";
    case CheckId::kShapeGemm: return "shape.gemm";
    case CheckId::kShapeSoftmax: return "shape.softmax";
    case CheckId::kShapeGelu: return "shape.gelu";
    case CheckId::kShapeLayernorm: return "shape.layernorm";
    case CheckId::kShapeFused: return "shape.fused";
    case CheckId::kConserveMacs: return "conserve.macs";
    case CheckId::kConserveApproxOps: return "conserve.approx-ops";
    case CheckId::kConserveSoftmaxRows: return "conserve.softmax-rows";
    case CheckId::kConserveGeluElements: return "conserve.gelu-elements";
    case CheckId::kConserveLayernormRows: return "conserve.layernorm-rows";
    case CheckId::kConserveCycles: return "conserve.cycles";
  }
  return "?";
}

std::string Diagnostic::to_string() const {
  std::string text = analysis::to_string(severity);
  text += " [";
  text += analysis::to_string(check);
  text += "]";
  if (node >= 0) {
    text += " node ";
    text += std::to_string(node);
    text += " (";
    text += pipeline::to_string(node_kind);
    text += " '";
    text += node_label;
    text += "')";
  }
  text += ": ";
  text += message;
  return text;
}

int DiagnosticReport::errors() const {
  int count = 0;
  for (const auto& d : diagnostics) {
    if (d.severity == Severity::kError) ++count;
  }
  return count;
}

int DiagnosticReport::warnings() const {
  int count = 0;
  for (const auto& d : diagnostics) {
    if (d.severity == Severity::kWarning) ++count;
  }
  return count;
}

bool DiagnosticReport::has(CheckId check) const {
  for (const auto& d : diagnostics) {
    if (d.check == check) return true;
  }
  return false;
}

std::string DiagnosticReport::to_string() const {
  std::string text;
  for (const auto& d : diagnostics) {
    text += d.to_string();
    text += '\n';
  }
  return text;
}

void DiagnosticReport::add(Severity severity, CheckId check,
                           std::string message) {
  Diagnostic d;
  d.severity = severity;
  d.check = check;
  d.message = std::move(message);
  diagnostics.push_back(std::move(d));
}

void DiagnosticReport::add(Severity severity, CheckId check,
                           const pipeline::OpGraph& graph, int node,
                           std::string message) {
  Diagnostic d;
  d.severity = severity;
  d.check = check;
  d.node = node;
  const auto& n = graph.nodes[static_cast<std::size_t>(node)];
  d.node_kind = n.kind;
  d.node_label = n.label;
  d.message = std::move(message);
  diagnostics.push_back(std::move(d));
}

void DiagnosticReport::merge(DiagnosticReport&& other) {
  for (auto& d : other.diagnostics) diagnostics.push_back(std::move(d));
  other.diagnostics.clear();
}

}  // namespace nova::analysis
