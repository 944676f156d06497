#include "noc/flit.hpp"

#include "common/assert.hpp"

namespace nova::noc {

Flit::Flit(int tag, std::vector<SlopeBiasPair> pairs)
    : tag_(tag), pairs_(std::move(pairs)) {
  NOVA_EXPECTS(tag >= 0);
  NOVA_EXPECTS(!pairs_.empty());
}

}  // namespace nova::noc
