#include "util/stats.hpp"

#include <ostream>
#include <sstream>
#include <utility>

namespace tlstm::util {

void stat_block::accumulate(const stat_block& other) noexcept {
#define TLSTM_STAT_ADD(name) name += other.name;
  TLSTM_STAT_FIELDS(TLSTM_STAT_ADD)
#undef TLSTM_STAT_ADD
}

std::string to_string(const stat_block& s) {
  std::ostringstream os;
  os << s;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const stat_block& s) {
  const char* sep = "";
#define TLSTM_STAT_PRINT(name) os << std::exchange(sep, " ") << #name "=" << s.name;
  TLSTM_STAT_FIELDS(TLSTM_STAT_PRINT)
#undef TLSTM_STAT_PRINT
  return os;
}

}  // namespace tlstm::util
