// Paper synthesis anchors (Table III, Table IV) and the calibration layer
// that pins our structural component model to them.
//
// Methodology (README, "Substitutions and calibration"): the structural
// model in vector_unit_cost.cpp reproduces the paper's published numbers
// within a few percent for most (accelerator, unit) pairs. Residuals --
// chiefly the paper's unstated switching-activity assumptions -- are
// absorbed into per-pair multiplicative calibration factors, computed here
// as anchor / structural. Every bench prints the factors so they are auditable;
// a regression test asserts the structural model stays within documented
// tolerance bands.
#pragma once

#include <optional>
#include <vector>

#include "hwmodel/vector_unit_cost.hpp"

namespace nova::hw {

/// A published synthesis result from the paper.
struct Anchor {
  double area_mm2 = 0.0;
  double power_mw = 0.0;
};

/// Table III entry for (accelerator, unit kind); nullopt where the paper has
/// no such configuration (e.g. per-core LUT on NVDLA).
[[nodiscard]] std::optional<Anchor> paper_anchor(AcceleratorKind accel,
                                                 UnitKind kind);

/// Multiplicative correction anchor/structural for area and power.
struct CalibrationFactors {
  double area = 1.0;
  double power = 1.0;
};

/// Computes the calibration factors for one (accelerator, unit) pair.
/// Returns identity factors when the paper publishes no anchor.
[[nodiscard]] CalibrationFactors calibration(const TechParams& tech,
                                             AcceleratorKind accel,
                                             UnitKind kind);

/// Structural cost with calibration applied: area/power equal the paper's
/// anchors by construction where anchors exist; energy_per_approx is scaled
/// by the power factor so runtime energy estimates stay consistent.
[[nodiscard]] UnitCost calibrated_cost(const TechParams& tech,
                                       AcceleratorKind accel, UnitKind kind);

/// A published related-work approximator data point (Table IV).
struct RelatedApproximator {
  const char* name;
  double tech_nm;
  double area_um2;
  /// Representative published power in mW (NACU's sigmoid pipeline; the
  /// bench prints all three NACU numbers).
  double power_mw;
};

/// NACU (DAC'20) and I-BERT (2021) as published (Table IV rows 1-2).
[[nodiscard]] std::vector<RelatedApproximator> related_approximators();

/// All (accelerator, unit) pairs that Table III reports.
[[nodiscard]] std::vector<std::pair<AcceleratorKind, UnitKind>>
table3_rows();

}  // namespace nova::hw
