#include "ledger/commit_log.hpp"

#include "support/assert.hpp"

namespace moonshot {

void CommitLog::commit(const BlockPtr& block, TimePoint when) {
  MOONSHOT_INVARIANT(block != nullptr, "commit of null block");
  if (block->is_genesis()) return;
  const bool extends =
      block->height() == last_height() + 1 && block->parent() == last_id();
  if (!extends && fork_policy_ == ForkPolicy::kRecord) {
    if (!fork_detected_) {
      fork_detected_ = true;
      fork_detail_ = "commit fork: block h=" + std::to_string(block->height()) +
                     " v=" + std::to_string(block->view()) +
                     " does not extend log tail h=" + std::to_string(last_height());
    }
    return;
  }
  MOONSHOT_INVARIANT(block->height() == last_height() + 1,
                     "commit must advance height by exactly one");
  MOONSHOT_INVARIANT(block->parent() == last_id(),
                     "committed block must extend the previous commit");
  blocks_.push_back(block);
  for (const auto& cb : callbacks_) cb(block, when);
}

bool CommitLog::is_committed(const Block& block) const {
  const Height h = block.height();
  if (h == 0) return block.id() == Block::genesis()->id();
  return h <= blocks_.size() && blocks_[h - 1]->id() == block.id();
}

bool commit_logs_consistent(const std::vector<const CommitLog*>& logs) {
  for (std::size_t i = 0; i < logs.size(); ++i) {
    for (std::size_t j = i + 1; j < logs.size(); ++j) {
      const auto& a = logs[i]->blocks();
      const auto& b = logs[j]->blocks();
      const std::size_t common = std::min(a.size(), b.size());
      for (std::size_t k = 0; k < common; ++k) {
        if (a[k]->id() != b[k]->id()) return false;
      }
    }
  }
  return true;
}

}  // namespace moonshot
