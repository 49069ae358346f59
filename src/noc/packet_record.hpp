// The network's store of PacketRecords (see flit.hpp).
//
// Records sit in fixed-size chunks that never move, so a ref stays valid
// for the record's whole life.  Each shard of the sharded tick owns one
// Pool of free refs: its NIs acquire from it when they start injecting a
// packet (phase 1, source shard) and release into it after ejecting a
// tail (phase 1, destination shard), so a tick phase touches only its own
// shard's pool.  The destination reads a record the source wrote in an
// earlier cycle, with a phase barrier in between.
//
// An NI starts at most one packet per cycle, so a pool holding its
// shard's node count of refs cannot run dry within a cycle.  refill()
// restores that between cycles, serially: it moves refs from pools with a
// surplus (packets released away from where they were acquired) first
// and allocates a chunk only when none has one to spare, so storage never
// changes while a phase reads it.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/snapshot.hpp"
#include "noc/flit.hpp"

namespace nocs::noc {

class PacketRecords {
 public:
  /// One shard's free refs.  Cache-line aligned so neighbor shards'
  /// acquires and releases never false-share.
  class alignas(64) Pool {
   public:
    RecordRef acquire() {
      NOCS_ENSURES(!free_.empty());  // refill() keeps a cycle's worth
      const RecordRef ref = free_.back();
      free_.pop_back();
      return ref;
    }
    void release(RecordRef ref) { free_.push_back(ref); }

   private:
    friend class PacketRecords;
    std::vector<RecordRef> free_;
    std::size_t want_ = 0;  ///< refs to hold at the start of each cycle
  };

  PacketRecord& operator[](RecordRef ref) {
    return chunks_[ref >> kChunkBits][ref & (kChunk - 1)];
  }
  const PacketRecord& operator[](RecordRef ref) const {
    return chunks_[ref >> kChunkBits][ref & (kChunk - 1)];
  }

  /// Replaces the pools with one per entry of `wants` (the most refs that
  /// pool's NIs may take in one cycle) and refills them from every free
  /// ref.  Invalidates Pool references.
  void set_pools(const std::vector<std::size_t>& wants);
  Pool& pool(std::size_t s) { return pools_[s]; }

  /// Tops every pool up to its want (see the file comment).  Serial,
  /// between cycles.
  void refill();

  /// Aborts unless every record is either free in exactly one pool or
  /// named in `held` (duplicates allowed), and never both: no leak, no
  /// double release, no use after release.
  void check_live(const std::vector<RecordRef>& held) const;

  /// Writes `f` with its record's fields as one checkpoint flit record.
  void save(snapshot::Writer& w, const Flit& f) const {
    noc::save(w, f, (*this)[f.record]);
  }

 private:
  friend class RecordRestore;
  static constexpr int kChunkBits = 8;
  static constexpr std::size_t kChunk = std::size_t{1} << kChunkBits;

  /// Records allocated (live or free).
  std::size_t capacity() const { return chunks_.size() * kChunk; }
  /// Appends a chunk and gives its refs to `pool`.
  void grow(Pool& pool);
  /// Frees every record into pool 0 (load_state rebuilds the pools).
  void free_all();
  /// A free ref from pool 0, growing it when empty.
  RecordRef take();

  std::vector<std::unique_ptr<PacketRecord[]>> chunks_;
  std::vector<Pool> pools_;
};

/// Rebuilds the records of a checkpoint, which stores every flit with its
/// packet fields.  Flits are grouped by (src, injection cycle), unique
/// because an NI starts at most one packet per cycle.  Constructing one
/// frees every record of `records`; it lives for one Network::load_state.
class RecordRestore {
 public:
  explicit RecordRestore(PacketRecords& records);

  /// The ref of the record keyed by `rec`'s (src, injected), made from
  /// `rec` on first sight.  Throws SnapshotError when `rec` disagrees with
  /// that record on packet, created or ack_for.
  RecordRef ref_for(const PacketRecord& rec);

  /// Reads one checkpoint flit record into `f`, resolving its record.
  void load(snapshot::Reader& r, Flit& f) {
    PacketRecord rec;
    noc::load(r, f, rec);
    f.record = ref_for(rec);
  }

 private:
  PacketRecords& records_;
  std::map<std::pair<NodeId, Cycle>, RecordRef> keys_;
};

}  // namespace nocs::noc
