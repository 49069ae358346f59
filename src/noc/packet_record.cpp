#include "noc/packet_record.hpp"

#include <algorithm>

namespace nocs::noc {

void PacketRecords::set_pools(const std::vector<std::size_t>& wants) {
  NOCS_EXPECTS(!wants.empty());
  std::vector<RecordRef> spare;
  for (const Pool& p : pools_)
    spare.insert(spare.end(), p.free_.begin(), p.free_.end());
  pools_ = std::vector<Pool>(wants.size());
  for (std::size_t s = 0; s < wants.size(); ++s) pools_[s].want_ = wants[s];
  pools_[0].free_ = std::move(spare);
  refill();
}

void PacketRecords::grow(Pool& pool) {
  const auto first = static_cast<RecordRef>(capacity());
  chunks_.push_back(std::make_unique<PacketRecord[]>(kChunk));
  for (std::size_t i = kChunk; i-- > 0;)
    pool.free_.push_back(first + static_cast<RecordRef>(i));
}

void PacketRecords::refill() {
  for (Pool& p : pools_) {
    for (Pool& q : pools_) {
      if (p.free_.size() >= p.want_) break;
      if (q.free_.size() <= q.want_) continue;
      const std::size_t n =
          std::min(p.want_ - p.free_.size(), q.free_.size() - q.want_);
      p.free_.insert(p.free_.end(), q.free_.end() - static_cast<long>(n),
                     q.free_.end());
      q.free_.resize(q.free_.size() - n);
    }
    while (p.free_.size() < p.want_) grow(p);
  }
}

void PacketRecords::check_live(const std::vector<RecordRef>& held) const {
  enum : char { kUnseen, kFree, kHeld };
  std::vector<char> seen(capacity(), kUnseen);
  for (const Pool& p : pools_)
    for (const RecordRef ref : p.free_) {
      NOCS_ENSURES(ref < seen.size() && seen[ref] == kUnseen);
      seen[ref] = kFree;
    }
  for (const RecordRef ref : held) {
    NOCS_ENSURES(ref < seen.size() && seen[ref] != kFree);
    seen[ref] = kHeld;
  }
  NOCS_ENSURES(std::find(seen.begin(), seen.end(), kUnseen) == seen.end());
}

void PacketRecords::free_all() {
  NOCS_EXPECTS(!pools_.empty());
  for (Pool& p : pools_) p.free_.clear();
  for (std::size_t i = capacity(); i-- > 0;)
    pools_[0].free_.push_back(static_cast<RecordRef>(i));
}

RecordRef PacketRecords::take() {
  if (pools_[0].free_.empty()) grow(pools_[0]);
  return pools_[0].acquire();
}

RecordRestore::RecordRestore(PacketRecords& records) : records_(records) {
  records_.free_all();
}

RecordRef RecordRestore::ref_for(const PacketRecord& rec) {
  const auto [it, fresh] = keys_.try_emplace({rec.src, rec.injected}, 0);
  if (!fresh) {
    const PacketRecord& have = records_[it->second];
    if (have.packet != rec.packet || have.created != rec.created ||
        have.ack_for != rec.ack_for)
      throw snapshot::SnapshotError(
          "flits injected by one node in one cycle disagree on their packet "
          "in checkpoint");
    return it->second;
  }
  it->second = records_.take();
  records_[it->second] = rec;
  return it->second;
}

}  // namespace nocs::noc
