#include "vt/cost_model.hpp"

namespace tlstm::vt {

cost_model cost_model::zero() {
  cost_model m;
  m.read_committed = 0;
  m.read_own_write = 0;
  m.write_word = 0;
  m.log_entry_validate = 0;
  m.ts_extend_fixed = 0;
  m.commit_fixed = 0;
  m.commit_per_write = 0;
  m.abort_fixed = 0;
  m.abort_per_write = 0;
  m.tx_begin = 0;
  m.read_speculative = 0;
  m.chain_hop = 0;
  m.task_start = 0;
  m.task_complete = 0;
  m.task_log_validate = 0;
  m.fence_coordination = 0;
  m.window_stall = 0;
  m.submit = 0;
  m.user_work_unit = 1;
  return m;
}

}  // namespace tlstm::vt
