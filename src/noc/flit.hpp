// The NOVA link payload: one flit carries `pairs` (slope, bias) pairs of
// 16-bit words plus a single tag bit -- 257 bits in the paper's
// configuration (16 words + tag). Flits are value types; the cycle
// simulator copies them through registers and bypass paths.
#pragma once

#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/fixed_point.hpp"

namespace nova::noc {

/// One (slope, bias) pair as carried on the link.
struct SlopeBiasPair {
  Word16 slope;
  Word16 bias;
};

/// A broadcast flit: up to `capacity` pairs plus the tag bit that routers
/// match against the LSB of their lookup addresses.
class Flit {
 public:
  Flit() = default;
  Flit(int tag, std::vector<SlopeBiasPair> pairs);

  [[nodiscard]] int tag() const { return tag_; }
  [[nodiscard]] int pair_count() const {
    return static_cast<int>(pairs_.size());
  }
  /// Inline: every pair capture in a simulation session goes through here.
  [[nodiscard]] const SlopeBiasPair& pair(int i) const {
    NOVA_EXPECTS(i >= 0 && i < pair_count());
    return pairs_[static_cast<std::size_t>(i)];
  }

  /// Width on the wire in bits: 2 words of 16 bits per pair + 1 tag bit.
  [[nodiscard]] int bits() const { return 32 * pair_count() + 1; }

 private:
  int tag_ = 0;
  std::vector<SlopeBiasPair> pairs_;
};

/// A link stage value: either a valid flit or an idle bubble.
using LinkValue = std::optional<Flit>;

}  // namespace nova::noc
