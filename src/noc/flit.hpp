// Flit and packet descriptors for the wormhole network.
//
// A Flit is 48 bytes: the per-flit position and hop count are int16 (so a
// packet is at most kMaxPacketLength = 32767 flits and a flit takes at most
// kMaxHops = 32767 hops), and the VC and message class are int8 (at most
// kMaxVcs = 127 VCs per port and classes per network).  The four flags
// share one byte.  Checkpoints keep every field at 64 bits, and load()
// rejects a value the narrowed field cannot hold.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace nocs::noc {

/// Unique packet identifier (monotonic per simulation).
using PacketId = std::uint64_t;

/// Packet role under end-to-end protection.  Data packets are checked and
/// acknowledged; ACK/NACK are single-flit control packets carrying the
/// acknowledged packet id in `ack_for`.  Without a fault oracle every
/// packet is kData and the control fields stay inert.  kMcast marks one
/// segment of a source-rooted multicast tree: `ack_for` carries the packed
/// (group, lo, hi) descriptor of the member subrange the receiver must
/// forward to (see NetworkInterface::send_multicast).
enum class PacketKind : std::uint8_t {
  kData = 0,
  kAck = 1,
  kNack = 2,
  kMcast = 3,
};

/// Longest packet a Flit can describe: `index` is an int16, so flit
/// positions run 0..kMaxPacketLength-1.
inline constexpr int kMaxPacketLength = std::numeric_limits<std::int16_t>::max();

/// Most hops a flit may take (`hops` is an int16).
inline constexpr int kMaxHops = std::numeric_limits<std::int16_t>::max();

/// Most VCs per port and message classes: `vc` and `msg_class` are int8.
inline constexpr int kMaxVcs = std::numeric_limits<std::int8_t>::max();

/// Most flits one port may buffer (num_vcs * vc_depth): credit counts,
/// VC-buffer indices and input-VC slot numbers are int16.
inline constexpr int kMaxPortFlits = std::numeric_limits<std::int16_t>::max();

/// One flow-control unit.  Packets are wormhole-switched: the head flit
/// carries routing state, body/tail flits follow the head's path on the
/// same VC.
///
/// Fields run widest first so the struct packs into 48 bytes, which keeps
/// a router's VC arena and every pipe slot small.  NetworkParams::validate
/// and the NI's packet-length checks keep the narrowed fields in range.
struct Flit {
  PacketId packet = 0;    ///< owning packet id
  Cycle created = 0;      ///< cycle the packet was generated at the source
  Cycle injected = 0;     ///< cycle the flit entered the network (left NI)
  PacketId ack_for = 0;   ///< packet id an ACK/NACK refers to

  NodeId src = kInvalidNode;  ///< injecting node
  NodeId dst = kInvalidNode;  ///< destination node

  std::int16_t index = 0;     ///< position within the packet (0 = head)
  std::int16_t hops = 0;      ///< router-to-router hops traversed so far
  std::int8_t vc = -1;        ///< VC assigned on the current link
  std::int8_t msg_class = 0;  ///< message class (virtual network)

  // End-to-end protection state (inert without a fault oracle).
  PacketKind kind = PacketKind::kData;
  bool is_head : 1 = false;
  bool is_tail : 1 = false;
  bool measured : 1 = false;   ///< generated inside the measurement window
  bool corrupted : 1 = false;  ///< a link fault flipped payload bits
};
static_assert(sizeof(Flit) == 48);

/// Checkpoint serialization for the flit wire type.  Field-by-field rather
/// than memcpy so the on-disk format is independent of struct padding.
inline void save(snapshot::Writer& w, const Flit& f) {
  w.u64(f.packet);
  w.i64(f.index);
  w.b(f.is_head);
  w.b(f.is_tail);
  w.i64(f.src);
  w.i64(f.dst);
  w.i64(f.vc);
  w.i64(f.msg_class);
  w.u64(f.created);
  w.u64(f.injected);
  w.i64(f.hops);
  w.b(f.measured);
  w.b(f.corrupted);
  w.u8(static_cast<std::uint8_t>(f.kind));
  w.u64(f.ack_for);
}

/// Reads a PacketKind byte, rejecting one past the last kind.
inline PacketKind load_kind(snapshot::Reader& r, const char* owner) {
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(PacketKind::kMcast))
    throw snapshot::SnapshotError(std::string(owner) +
                                  " kind in checkpoint is out of range");
  return static_cast<PacketKind>(kind);
}

inline void load(snapshot::Reader& r, Flit& f) {
  f.packet = r.u64();
  f.index = static_cast<std::int16_t>(
      r.i64_in(0, kMaxPacketLength - 1, "flit", "index"));
  f.is_head = r.b();
  f.is_tail = r.b();
  f.src = static_cast<NodeId>(r.i64());
  f.dst = static_cast<NodeId>(r.i64());
  f.vc = static_cast<std::int8_t>(r.i64_in(-1, kMaxVcs - 1, "flit", "vc"));
  f.msg_class =
      static_cast<std::int8_t>(r.i64_in(0, kMaxVcs - 1, "flit", "msg_class"));
  f.created = r.u64();
  f.injected = r.u64();
  f.hops = static_cast<std::int16_t>(r.i64_in(0, kMaxHops, "flit", "hops"));
  f.measured = r.b();
  f.corrupted = r.b();
  f.kind = load_kind(r, "flit");
  f.ack_for = r.u64();
}

}  // namespace nocs::noc
