// Tests for the checkpoint/restore subsystem: Writer/Reader framing,
// snapshot-file corruption detection, per-component round trips, the
// bit-identical-resume guarantee of run_simulation (several cut points,
// faults on and off), and manifest-based sweep resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "common/stats.hpp"
#include "fault/fault_injector.hpp"
#include "noc/network_interface.hpp"
#include "noc/parallel_sweep.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"
#include "noc/simulator.hpp"
#include "sprint/network_builder.hpp"
#include "sprint/online_adapt.hpp"
#include "thermal/grid.hpp"

namespace nocs {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// --- Writer / Reader framing -----------------------------------------------

TEST(SnapshotWriter, PrimitivesRoundTrip) {
  snapshot::Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.b(true);
  w.b(false);
  w.f64(3.141592653589793);
  w.f64(-0.0);
  w.str("hello snapshot");
  w.str("");

  snapshot::Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.f64(), 3.141592653589793);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.str(), "hello snapshot");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SnapshotWriter, SectionsFrameTheirContent) {
  snapshot::Writer w;
  w.begin_section("outer");
  w.u64(1);
  w.begin_section("inner");
  w.str("x");
  w.end_section();
  w.u64(2);
  w.end_section();

  snapshot::Reader r(w.bytes());
  r.begin_section("outer");
  EXPECT_EQ(r.u64(), 1u);
  r.begin_section("inner");
  EXPECT_EQ(r.str(), "x");
  r.end_section();
  EXPECT_EQ(r.u64(), 2u);
  r.end_section();
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SnapshotReader, UnderflowThrows) {
  snapshot::Writer w;
  w.u32(7);
  snapshot::Reader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW(r.u8(), snapshot::SnapshotError);
}

TEST(SnapshotReader, WrongSectionNameThrows) {
  snapshot::Writer w;
  w.begin_section("router");
  w.u64(3);
  w.end_section();
  snapshot::Reader r(w.bytes());
  EXPECT_THROW(r.begin_section("network"), snapshot::SnapshotError);
}

TEST(SnapshotReader, ShortSectionReadThrows) {
  snapshot::Writer w;
  w.begin_section("s");
  w.u64(1);
  w.u64(2);
  w.end_section();
  snapshot::Reader r(w.bytes());
  r.begin_section("s");
  EXPECT_EQ(r.u64(), 1u);
  EXPECT_THROW(r.end_section(), snapshot::SnapshotError);
}

// --- snapshot files: atomic write + corruption detection --------------------

snapshot::Writer small_payload() {
  snapshot::Writer w;
  w.begin_section("test");
  w.u64(0x1122334455667788ULL);
  w.str("payload");
  w.end_section();
  return w;
}

TEST(SnapshotFile, RoundTrips) {
  const std::string path = tmp_path("snap_roundtrip.nocsnap");
  ASSERT_TRUE(snapshot::save_file(path, small_payload()));
  snapshot::Reader r = snapshot::load_file(path);
  r.begin_section("test");
  EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.str(), "payload");
  r.end_section();
  EXPECT_EQ(r.remaining(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotFile, MissingFileThrows) {
  EXPECT_THROW(snapshot::load_file(tmp_path("snap_does_not_exist.nocsnap")),
               snapshot::SnapshotError);
}

std::vector<char> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<char> bytes;
  int c;
  while ((c = std::fgetc(f)) != EOF) bytes.push_back(static_cast<char>(c));
  std::fclose(f);
  return bytes;
}

void spew(const std::string& path, const std::vector<char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

TEST(SnapshotFile, BadMagicRejected) {
  const std::string path = tmp_path("snap_badmagic.nocsnap");
  ASSERT_TRUE(snapshot::save_file(path, small_payload()));
  std::vector<char> bytes = slurp(path);
  bytes[0] = 'X';
  spew(path, bytes);
  EXPECT_THROW(snapshot::load_file(path), snapshot::SnapshotError);
  std::remove(path.c_str());
}

TEST(SnapshotFile, PayloadBitFlipRejected) {
  const std::string path = tmp_path("snap_bitflip.nocsnap");
  ASSERT_TRUE(snapshot::save_file(path, small_payload()));
  std::vector<char> bytes = slurp(path);
  // Header is magic(8) + version(4) + length(8) + checksum(8) = 28 bytes;
  // flip one bit well inside the payload.
  ASSERT_GT(bytes.size(), 40u);
  bytes[36] = static_cast<char>(bytes[36] ^ 0x10);
  spew(path, bytes);
  EXPECT_THROW(snapshot::load_file(path), snapshot::SnapshotError);
  std::remove(path.c_str());
}

TEST(SnapshotFile, TruncationRejected) {
  const std::string path = tmp_path("snap_truncated.nocsnap");
  ASSERT_TRUE(snapshot::save_file(path, small_payload()));
  std::vector<char> bytes = slurp(path);
  bytes.resize(bytes.size() - 5);
  spew(path, bytes);
  EXPECT_THROW(snapshot::load_file(path), snapshot::SnapshotError);
  std::remove(path.c_str());
}

// --- component round trips --------------------------------------------------

TEST(SnapshotComponents, RngStateRoundTrips) {
  Rng a(12345);
  for (int i = 0; i < 100; ++i) (void)a.next();
  Rng b(999);
  b.set_state(a.state());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SnapshotComponents, FlitRoundTripsAndRejectsOutOfRangeFields) {
  noc::Flit f;
  f.index = noc::kMaxPacketLength - 1;
  f.hops = noc::kMaxHops;
  f.vc = noc::kMaxVcs - 1;
  f.msg_class = 3;
  f.is_tail = true;
  f.corrupted = true;
  f.kind = noc::PacketKind::kNack;
  const noc::PacketRecord rec{77, 5, 6, 9, 2};
  snapshot::Writer w;
  noc::save(w, f, rec);
  snapshot::Reader r(w.bytes());
  noc::Flit back;
  noc::PacketRecord back_rec;
  noc::load(r, back, back_rec);
  EXPECT_EQ(back.index, f.index);
  EXPECT_EQ(back.hops, f.hops);
  EXPECT_EQ(back.vc, f.vc);
  EXPECT_EQ(back.msg_class, f.msg_class);
  EXPECT_FALSE(back.is_head);
  EXPECT_TRUE(back.is_tail);
  EXPECT_TRUE(back.corrupted);
  EXPECT_EQ(back.kind, noc::PacketKind::kNack);
  EXPECT_EQ(back_rec.packet, 77u);
  EXPECT_EQ(back_rec.created, 5u);
  EXPECT_EQ(back_rec.injected, 6u);
  EXPECT_EQ(back_rec.ack_for, 9u);
  EXPECT_EQ(back_rec.src, 2);

  // The codec stores every field at 64 bits; a value the narrowed field
  // cannot hold must not be truncated silently.  `record` lays one flit
  // out field by field as save() does, with chosen index/vc/class/hops.
  const auto record = [](std::int64_t index, std::int64_t vc,
                         std::int64_t cls, std::int64_t hops) {
    snapshot::Writer rw;
    rw.u64(1);       // packet
    rw.i64(index);
    rw.b(true);      // is_head
    rw.b(true);      // is_tail
    rw.i64(0);       // src
    rw.i64(1);       // dst
    rw.i64(vc);
    rw.i64(cls);
    rw.u64(0);       // created
    rw.u64(0);       // injected
    rw.i64(hops);
    rw.b(false);     // measured
    rw.b(false);     // corrupted
    rw.u8(0);        // kind
    rw.u64(0);       // ack_for
    return rw.bytes();
  };
  const auto load_record = [](std::vector<std::uint8_t> bytes) {
    snapshot::Reader rr(std::move(bytes));
    noc::Flit out;
    noc::PacketRecord out_rec;
    noc::load(rr, out, out_rec);
  };
  EXPECT_NO_THROW(load_record(record(0, 0, 0, 0)));
  EXPECT_THROW(load_record(record(-1, 0, 0, 0)), snapshot::SnapshotError);
  EXPECT_THROW(load_record(record(noc::kMaxPacketLength, 0, 0, 0)),
               snapshot::SnapshotError);
  EXPECT_THROW(load_record(record(0, noc::kMaxVcs, 0, 0)),
               snapshot::SnapshotError);
  EXPECT_THROW(load_record(record(0, 0, -1, 0)), snapshot::SnapshotError);
  EXPECT_THROW(load_record(record(0, 0, 0, noc::kMaxHops + 1)),
               snapshot::SnapshotError);
}

// A checkpoint stores every flit with its packet's fields; a restore
// makes one record per (src, injection cycle) and refuses flits of one
// key that disagree on the packet.
TEST(SnapshotComponents, RestoreGroupsFlitsIntoRecordsByInjection) {
  noc::PacketRecords records;
  records.set_pools({2});
  const noc::PacketRecord head{77, 5, 6, 0, 2};
  noc::RecordRestore restore(records);
  const noc::RecordRef a = restore.ref_for(head);
  EXPECT_EQ(restore.ref_for(head), a);  // a body flit of the same packet
  noc::PacketRecord other = head;
  other.injected = 7;  // the next packet from the same source
  const noc::RecordRef b = restore.ref_for(other);
  EXPECT_NE(b, a);
  EXPECT_EQ(records[a].injected, 6u);
  EXPECT_EQ(records[b].injected, 7u);
  records.check_live({a, b});

  for (const auto disagree :
       {+[](noc::PacketRecord& p) { p.packet += 1; },
        +[](noc::PacketRecord& p) { p.created += 1; },
        +[](noc::PacketRecord& p) { p.ack_for += 1; }}) {
    noc::PacketRecord bad = head;
    disagree(bad);
    EXPECT_THROW(restore.ref_for(bad), snapshot::SnapshotError);
  }
}

// A router checkpoint stores every field at 64 bits; the narrowed
// in-memory fields (int8 VC/port/class, int16 credits) must reject a
// value they cannot hold instead of truncating it.  `RouterRecord` lays
// out one idle router's section field by field as Router::save_state
// does, with input VC 0 and output VC 0 open to override.
struct RouterRecord {
  std::uint8_t power_state = 0;
  std::int64_t in_out_vc = -1;
  std::int64_t in_msg_class = 0;
  std::int64_t owner_port = -1;
  std::int64_t owner_vc = -1;
  std::int64_t credits = -2;  // -2: the configured depth

  std::vector<std::uint8_t> bytes(int ports, const noc::NetworkParams& p) const {
    snapshot::Writer w;
    w.begin_section("router");
    w.u8(power_state);
    w.i64(0);  // wake_remaining
    w.i64(0);  // wake_attempts
    w.u64(0);  // idle_streak
    const int slots = ports * p.num_vcs;
    for (int s = 0; s < slots; ++s) {
      w.begin_section("vc_buffer");
      w.i64(0);
      w.end_section();
      w.u8(0);  // stage
      w.u8(0);  // out_port
      w.i64(s == 0 ? in_out_vc : -1);
      w.i64(s == 0 ? in_msg_class : 0);
    }
    for (int s = 0; s < slots; ++s) {
      w.b(false);
      w.i64(s == 0 ? owner_port : -1);
      w.i64(s == 0 ? owner_vc : -1);
      w.i64(s == 0 && credits != -2 ? credits : p.vc_depth);
    }
    w.i64(0);  // switch grants
    for (int i = 0; i < 3 * ports; ++i) w.i64(0);  // round-robin pointers
    for (int i = 0; i < 16; ++i) w.u64(0);         // counters
    w.u64(0);                                      // counted_until
    w.end_section();
    return w.bytes();
  }
};

class RouterLoadRange : public ::testing::Test {
 protected:
  RouterLoadRange()
      : topo_(noc::Topology::mesh(2, 2)),
        state_(noc::new_line_block(
            noc::Router::storage_bytes(params(), topo_.num_ports(0)))),
        router_(0, params(), topo_, &xy_, state_.get()) {}

  static noc::NetworkParams params() {
    noc::NetworkParams p;
    p.width = 2;
    p.height = 2;
    p.num_vcs = 4;
    p.vc_depth = 4;
    p.num_classes = 2;
    return p;
  }

  void load(const RouterRecord& rec) {
    snapshot::Reader r(rec.bytes(router_.num_ports(), params()));
    noc::PacketRecords records;
    records.set_pools({1});
    noc::RecordRestore restore(records);
    router_.load_state(r, restore);
  }

  noc::XyRouting xy_;
  noc::Topology topo_;
  noc::LineBlock state_;
  noc::Router router_;
};

TEST_F(RouterLoadRange, ValidRecordLoads) {
  EXPECT_NO_THROW(load(RouterRecord{}));
  RouterRecord held;  // output VC 0 owned by input port 1, VC 3
  held.owner_port = 1;
  held.owner_vc = 3;
  held.credits = 0;
  held.in_out_vc = 3;
  held.in_msg_class = 1;
  EXPECT_NO_THROW(load(held));
  EXPECT_EQ(router_.total_output_credits(),
            (router_.num_ports() * 4 - 1) * 4);
}

TEST_F(RouterLoadRange, PowerStateMustBeKnown) {
  RouterRecord rec;
  rec.power_state = 2;  // waking
  EXPECT_NO_THROW(load(rec));
  rec.power_state = 3;
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
}

TEST_F(RouterLoadRange, OutputVcOwnerMustFit) {
  RouterRecord rec;
  rec.owner_port = 300;  // past int8
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
  rec.owner_port = router_.num_ports();  // fits int8, names no port
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
  rec = RouterRecord{};
  rec.owner_vc = 128;
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
  rec.owner_vc = -2;
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
}

TEST_F(RouterLoadRange, CreditCountMustFit) {
  RouterRecord rec;
  rec.credits = 40000;  // past int16
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
  rec.credits = 5;  // fits int16, exceeds the VC depth
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
  rec.credits = -1;
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
}

TEST_F(RouterLoadRange, InputOutVcMustFit) {
  RouterRecord rec;
  rec.in_out_vc = 200;  // past int8
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
  rec.in_out_vc = 4;  // fits int8, names no VC
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
}

// An NI checkpoint stores each pending packet's kind as a byte and its
// class, length and destination at 64 bits.  `NiRecord` lays out one NI's
// section as NetworkInterface::save_state does, with one queued packet
// open to override and an idle, never-sending current_ (all zeros).
struct NiRecord {
  std::uint8_t kind = 0;
  std::int64_t msg_class = 1;
  std::int64_t length = 5;
  std::int64_t dst = 3;

  std::vector<std::uint8_t> bytes(const noc::NetworkParams& p) const {
    snapshot::Writer w;
    w.begin_section("ni");
    for (int i = 0; i < 4; ++i) w.u64(i + 1);  // rng state
    w.i64(1);                                  // source queue
    pending(w, 7, dst, msg_class, length, kind);
    w.i64(p.num_vcs);
    for (int v = 0; v < p.num_vcs; ++v) w.i64(p.vc_depth);
    w.b(false);                     // sending
    pending(w, 0, 0, 0, 0, 0);      // current_ of an NI that never sent
    w.i64(0);                       // flits_sent
    w.i64(-1);                      // current_vc
    w.u64(0);                       // head_injected
    w.i64(0);                       // vc_rr
    w.i64(0);                       // unacked
    w.u64(0);                       // next_deadline
    w.i64(0);                       // rx state
    w.i64(0);                       // delivered
    for (int i = 0; i < 3; ++i) w.u64(0);  // generated, ejected, next id
    w.end_section();
    return w.bytes();
  }

  static void pending(snapshot::Writer& w, std::uint64_t id, std::int64_t dst,
                      std::int64_t msg_class, std::int64_t length,
                      std::uint8_t kind) {
    w.u64(id);
    w.i64(dst);
    w.u64(0);  // created
    w.b(false);
    w.i64(msg_class);
    w.i64(length);
    w.u8(kind);
    w.u64(0);  // ack_for
  }
};

class NiLoadRange : public ::testing::Test {
 protected:
  NiLoadRange() : ni_(0, params(), &stats_) {}

  static noc::NetworkParams params() {
    noc::NetworkParams p;
    p.width = 2;
    p.height = 2;
    p.num_classes = 2;
    return p;
  }

  void load(const NiRecord& rec) {
    snapshot::Reader r(rec.bytes(params()));
    ni_.load_state(r);
  }

  noc::StatsCollector stats_;
  noc::NetworkInterface ni_;
};

TEST_F(NiLoadRange, ValidRecordLoads) {
  EXPECT_NO_THROW(load(NiRecord{}));
  EXPECT_EQ(ni_.source_queue_depth(), 1u);
  NiRecord edge;
  edge.kind = static_cast<std::uint8_t>(noc::PacketKind::kMcast);
  edge.msg_class = 0;
  edge.length = noc::kMaxPacketLength;
  edge.dst = 0;
  EXPECT_NO_THROW(load(edge));
}

TEST_F(NiLoadRange, KindMustBeKnown) {
  NiRecord rec;
  rec.kind = static_cast<std::uint8_t>(noc::PacketKind::kMcast) + 1;
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
}

TEST_F(NiLoadRange, ClassMustFit) {
  NiRecord rec;
  rec.msg_class = 2;  // num_classes
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
  rec.msg_class = -1;
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
}

TEST_F(NiLoadRange, LengthMustFit) {
  NiRecord rec;
  rec.length = 0;  // only an idle current_ may hold length 0
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
  rec.length = noc::kMaxPacketLength + 1;
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
}

TEST_F(NiLoadRange, DestinationMustBeANode) {
  NiRecord rec;
  rec.dst = 4;  // num_nodes
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
  rec.dst = -1;
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
}

TEST_F(RouterLoadRange, InputMsgClassMustFit) {
  RouterRecord rec;
  rec.in_msg_class = 1000;  // past int8
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
  rec.in_msg_class = 2;  // fits int8, names no class
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
  rec.in_msg_class = -1;
  EXPECT_THROW(load(rec), snapshot::SnapshotError);
}

TEST(SnapshotComponents, RunningStatRoundTrips) {
  RunningStat s;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) s.add(rng.uniform() * 100.0);

  snapshot::Writer w;
  s.save_state(w);
  RunningStat restored;
  snapshot::Reader r(w.bytes());
  restored.load_state(r);

  EXPECT_EQ(restored.count(), s.count());
  EXPECT_EQ(restored.mean(), s.mean());
  EXPECT_EQ(restored.variance(), s.variance());
  EXPECT_EQ(restored.min(), s.min());
  EXPECT_EQ(restored.max(), s.max());

  // Continuing both must stay bit-identical.
  s.add(42.5);
  restored.add(42.5);
  EXPECT_EQ(restored.mean(), s.mean());
  EXPECT_EQ(restored.variance(), s.variance());
}

TEST(SnapshotComponents, HistogramRoundTrips) {
  Histogram h(1.0, 64);
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) h.add(rng.uniform() * 500.0);

  snapshot::Writer w;
  h.save_state(w);
  Histogram restored(1.0, 64);
  snapshot::Reader r(w.bytes());
  restored.load_state(r);

  EXPECT_EQ(restored.total(), h.total());
  EXPECT_EQ(restored.quantile(0.5), h.quantile(0.5));
  EXPECT_EQ(restored.quantile(0.99), h.quantile(0.99));
  EXPECT_EQ(restored.max_value(), h.max_value());
}

TEST(SnapshotComponents, HistogramShapeMismatchThrows) {
  Histogram h(1.0, 64);
  h.add(3.0);
  snapshot::Writer w;
  h.save_state(w);
  Histogram other(1.0, 32);  // different bin count
  snapshot::Reader r(w.bytes());
  EXPECT_THROW(other.load_state(r), snapshot::SnapshotError);
}

TEST(SnapshotComponents, TemperatureFieldRoundTrips) {
  thermal::TemperatureField field(8, 6, 1, 318.0);
  Rng rng(11);
  for (double& t : field.raw()) t = 300.0 + rng.uniform() * 60.0;

  snapshot::Writer w;
  field.save_state(w);
  thermal::TemperatureField restored(8, 6, 1, 0.0);
  snapshot::Reader r(w.bytes());
  restored.load_state(r);

  ASSERT_EQ(restored.raw().size(), field.raw().size());
  for (std::size_t i = 0; i < field.raw().size(); ++i)
    EXPECT_EQ(restored.raw()[i], field.raw()[i]);
  EXPECT_EQ(restored.peak(), field.peak());
  EXPECT_EQ(restored.average(), field.average());
}

TEST(SnapshotComponents, TemperatureFieldDimensionMismatchThrows) {
  thermal::TemperatureField field(8, 6, 1, 318.0);
  snapshot::Writer w;
  field.save_state(w);
  thermal::TemperatureField other(6, 8, 1, 318.0);  // transposed grid
  snapshot::Reader r(w.bytes());
  EXPECT_THROW(other.load_state(r), snapshot::SnapshotError);
}

TEST(SnapshotComponents, OnlineControllerRoundTrips) {
  sprint::OnlineLevelController ctrl(16, /*start_level=*/2);
  // Drive the hill climber into a mid-search state.
  ctrl.observe(1.00);  // baseline at level 2
  ctrl.observe(0.80);  // probe up measured faster
  ctrl.observe(0.70);  // keep climbing

  snapshot::Writer w;
  ctrl.save_state(w);
  sprint::OnlineLevelController restored(16, 1);
  snapshot::Reader r(w.bytes());
  restored.load_state(r);

  EXPECT_EQ(restored.next_level(), ctrl.next_level());
  EXPECT_EQ(restored.converged(), ctrl.converged());
  EXPECT_EQ(restored.n_max(), ctrl.n_max());

  // Identical observations after restore must keep the two controllers in
  // lock-step — that is what makes adaptive campaigns resumable.
  for (double t : {0.65, 0.72, 0.68, 0.71}) {
    EXPECT_EQ(restored.next_level(), ctrl.next_level());
    ctrl.observe(t);
    restored.observe(t);
  }
  EXPECT_EQ(restored.next_level(), ctrl.next_level());
  EXPECT_EQ(restored.converged(), ctrl.converged());
}

// --- bit-identical resume ----------------------------------------------------

fault::FaultParams storm_params() {
  fault::FaultParams fp;
  fp.enabled = true;
  fp.seed = 42;
  fp.flip_rate = 0.002;
  fp.drop_rate = 0.01;
  fp.link_down_rate = 0.0005;
  fp.link_down_cycles = 30;
  fp.ack_timeout = 200;
  fp.max_backoff = 2000;
  return fp;
}

struct Rig {
  std::unique_ptr<noc::RoutingPolicy> policy;
  std::unique_ptr<noc::Network> net;
  std::unique_ptr<fault::FaultInjector> injector;
};

/// A fig09-style configuration: 4-core NoC-sprinting region on the Table 1
/// mesh, uniform traffic, deterministic seed.
Rig make_rig(bool faults, std::uint64_t seed = 7) {
  noc::NetworkParams params;
  auto bundle =
      sprint::make_noc_sprinting_network(params, 4, "uniform", seed);
  Rig rig;
  rig.policy = std::move(bundle.policy);
  rig.net = std::move(bundle.network);
  if (faults) {
    rig.injector =
        std::make_unique<fault::FaultInjector>(params.shape(), storm_params());
    const noc::ProtectionParams prot = storm_params().protection();
    rig.net->enable_resilience(rig.injector.get(), &prot);
  }
  return rig;
}

noc::SimConfig short_sim(bool faults) {
  noc::SimConfig sim;
  sim.warmup = 300;
  sim.measure = 1200;
  sim.drain_max = 20000;
  sim.injection_rate = 0.15;
  if (faults) sim.watchdog_cycles = 50000;
  return sim;
}

noc::CheckpointConfig ckpt_for(Rig& rig, noc::CheckpointConfig c) {
  if (rig.injector != nullptr)
    c.extras.emplace_back("fault", rig.injector.get());
  return c;
}

void expect_identical(const noc::SimResults& a, const noc::SimResults& b) {
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.avg_network_latency, b.avg_network_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.packets_ejected, b.packets_ejected);
  EXPECT_EQ(a.accepted_rate, b.accepted_rate);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.histogram_saturated, b.histogram_saturated);
  EXPECT_EQ(a.max_packet_latency, b.max_packet_latency);
  EXPECT_EQ(a.hung, b.hung);
  EXPECT_EQ(a.interrupted, b.interrupted);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.counters.buffer_writes, b.counters.buffer_writes);
  EXPECT_EQ(a.counters.buffer_reads, b.counters.buffer_reads);
  EXPECT_EQ(a.counters.xbar_traversals, b.counters.xbar_traversals);
  EXPECT_EQ(a.counters.vc_allocs, b.counters.vc_allocs);
  EXPECT_EQ(a.counters.sa_arbitrations, b.counters.sa_arbitrations);
  EXPECT_EQ(a.counters.link_flits, b.counters.link_flits);
  EXPECT_EQ(a.counters.active_cycles, b.counters.active_cycles);
  EXPECT_EQ(a.counters.gated_cycles, b.counters.gated_cycles);
  EXPECT_EQ(a.counters.waking_cycles, b.counters.waking_cycles);
  EXPECT_EQ(a.counters.wake_events, b.counters.wake_events);
  EXPECT_EQ(a.counters.idle_active_cycles, b.counters.idle_active_cycles);
  EXPECT_EQ(a.counters.flits_corrupted, b.counters.flits_corrupted);
  EXPECT_EQ(a.counters.reroutes, b.counters.reroutes);
  EXPECT_EQ(a.counters.wake_failures, b.counters.wake_failures);
  EXPECT_EQ(a.resilience.retransmissions, b.resilience.retransmissions);
  EXPECT_EQ(a.resilience.timeouts, b.resilience.timeouts);
  EXPECT_EQ(a.resilience.corrupted_packets, b.resilience.corrupted_packets);
  EXPECT_EQ(a.resilience.dropped_packets, b.resilience.dropped_packets);
  EXPECT_EQ(a.resilience.duplicates, b.resilience.duplicates);
  EXPECT_EQ(a.resilience.acks_sent, b.resilience.acks_sent);
  EXPECT_EQ(a.resilience.nacks_sent, b.resilience.nacks_sent);
}

/// The core guarantee: run to `cut`, checkpoint, restore into a freshly
/// built network, continue — the final results must be bit-identical to
/// the run that never stopped.
void check_resume_at(Cycle cut, bool faults, const std::string& tag) {
  SCOPED_TRACE(tag);
  const noc::SimConfig sim = short_sim(faults);
  const std::string path = tmp_path("resume_" + tag + ".nocsnap");

  Rig uninterrupted = make_rig(faults);
  const noc::SimResults reference =
      noc::run_simulation(*uninterrupted.net, sim);

  Rig first = make_rig(faults);
  noc::CheckpointConfig stop;
  stop.save_path = path;
  stop.stop_at = cut;
  const noc::SimResults partial =
      noc::run_simulation(*first.net, sim, ckpt_for(first, stop));
  ASSERT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.cycles, cut);

  Rig second = make_rig(faults);
  noc::CheckpointConfig resume;
  resume.restore_path = path;
  const noc::SimResults resumed =
      noc::run_simulation(*second.net, sim, ckpt_for(second, resume));
  EXPECT_FALSE(resumed.interrupted);
  expect_identical(resumed, reference);
  std::remove(path.c_str());
}

TEST(SnapshotResume, BitIdenticalFromWarmupCut) {
  check_resume_at(150, /*faults=*/false, "warmup");
}

TEST(SnapshotResume, BitIdenticalFromMidMeasureCut) {
  check_resume_at(300 + 600, /*faults=*/false, "measure");
}

TEST(SnapshotResume, BitIdenticalFromDrainCut) {
  check_resume_at(300 + 1200 + 1, /*faults=*/false, "drain");
}

TEST(SnapshotResume, BitIdenticalWithFaultsFromWarmupCut) {
  check_resume_at(150, /*faults=*/true, "faults_warmup");
}

TEST(SnapshotResume, BitIdenticalWithFaultsFromMidMeasureCut) {
  check_resume_at(300 + 600, /*faults=*/true, "faults_measure");
}

TEST(SnapshotResume, BitIdenticalWithFaultsFromDrainCut) {
  check_resume_at(300 + 1200 + 1, /*faults=*/true, "faults_drain");
}

TEST(SnapshotResume, EmptyCheckpointConfigMatchesPlainRun) {
  const noc::SimConfig sim = short_sim(false);
  Rig a = make_rig(false);
  Rig b = make_rig(false);
  expect_identical(noc::run_simulation(*a.net, sim),
                   noc::run_simulation(*b.net, sim, noc::CheckpointConfig{}));
}

TEST(SnapshotResume, PeriodicAutosaveRestoresToIdenticalEnd) {
  // Run to completion with autosave; the surviving file is the last
  // periodic checkpoint.  Restoring it and finishing must land on the
  // same results as the uninterrupted run.
  const noc::SimConfig sim = short_sim(false);
  const std::string path = tmp_path("autosave.nocsnap");

  Rig a = make_rig(false);
  noc::CheckpointConfig autosave;
  autosave.save_path = path;
  autosave.every = 500;
  const noc::SimResults reference =
      noc::run_simulation(*a.net, sim, autosave);
  EXPECT_FALSE(reference.interrupted);

  Rig b = make_rig(false);
  noc::CheckpointConfig resume;
  resume.restore_path = path;
  const noc::SimResults resumed = noc::run_simulation(*b.net, sim, resume);
  expect_identical(resumed, reference);
  std::remove(path.c_str());
}

TEST(SnapshotResume, MismatchedSimConfigRejected) {
  noc::SimConfig sim = short_sim(false);
  const std::string path = tmp_path("mismatch.nocsnap");

  Rig a = make_rig(false);
  noc::CheckpointConfig stop;
  stop.save_path = path;
  stop.stop_at = 400;
  (void)noc::run_simulation(*a.net, sim, stop);

  Rig b = make_rig(false);
  noc::CheckpointConfig resume;
  resume.restore_path = path;
  sim.measure += 1;  // not the config the checkpoint was taken under
  EXPECT_THROW(noc::run_simulation(*b.net, sim, resume),
               snapshot::SnapshotError);
  std::remove(path.c_str());
}

TEST(SnapshotResume, MismatchedNetworkRejected) {
  const noc::SimConfig sim = short_sim(false);
  const std::string path = tmp_path("mismatch_net.nocsnap");

  Rig a = make_rig(false);
  noc::CheckpointConfig stop;
  stop.save_path = path;
  stop.stop_at = 400;
  (void)noc::run_simulation(*a.net, sim, stop);

  // An 8-core region has different endpoints than the checkpointed 4-core
  // run; the fingerprint check must refuse to load the state on top.
  noc::NetworkParams params;
  auto bundle = sprint::make_noc_sprinting_network(params, 8, "uniform", 7);
  noc::CheckpointConfig resume;
  resume.restore_path = path;
  EXPECT_THROW(noc::run_simulation(*bundle.network, sim, resume),
               snapshot::SnapshotError);
  std::remove(path.c_str());
}

// tests/data/credit_pipes_3x3_cut250.nocsnap was written at cycle 250 of
// run_pre_pipe_checkpoint_config() by a build that sent credits upstream
// through 1-cycle pipes, so its credit-pipe sections hold 11 credits in
// flight; this build writes them empty and folds such entries into the
// receivers' counters on load.
noc::SimResults run_pre_pipe_checkpoint_config(
    const noc::CheckpointConfig& ckpt) {
  noc::NetworkParams p;
  p.width = 3;
  p.height = 3;
  p.vc_depth = 2;
  const noc::XyRouting xy;
  noc::Network net(p, &xy);
  net.set_endpoints(p.shape().all_nodes(), noc::make_traffic("uniform", 9));
  net.set_seed(3);
  noc::SimConfig sim;
  sim.warmup = 100;
  sim.measure = 300;
  sim.drain_max = 3000;
  sim.injection_rate = 0.35;
  return noc::run_simulation(net, sim, ckpt);
}

TEST(SnapshotResume, CreditPipeCheckpointFromAnOlderBuildResumesExactly) {
  const std::string legacy =
      std::string(NOCS_TEST_DATA_DIR) + "/credit_pipes_3x3_cut250.nocsnap";
  const std::string fresh = tmp_path("credit_fold_fresh.nocsnap");
  noc::CheckpointConfig stop;
  stop.save_path = fresh;
  stop.stop_at = 250;
  ASSERT_TRUE(run_pre_pipe_checkpoint_config(stop).interrupted);
  // The legacy file carries 11 credit entries (16 bytes each) that this
  // build's checkpoint at the same cycle does not.
  EXPECT_EQ(snapshot::load_file(legacy).remaining(),
            snapshot::load_file(fresh).remaining() + 11 * 16);

  const noc::SimResults reference = run_pre_pipe_checkpoint_config({});
  for (const std::string& path : {legacy, fresh}) {
    SCOPED_TRACE(path);
    noc::CheckpointConfig resume;
    resume.restore_path = path;
    const noc::SimResults resumed = run_pre_pipe_checkpoint_config(resume);
    EXPECT_FALSE(resumed.interrupted);
    expect_identical(resumed, reference);
  }
  std::remove(fresh.c_str());
}

/// A 4x4 XY mesh under uniform 0.12 background traffic where, every 17
/// cycles before cycle 700, one node (stepping by 5) sends a 4-flit tree
/// multicast to all 16 nodes, so relays re-inject copies mid-run.
struct McastRelayRig {
  noc::NetworkParams params = [] {
    noc::NetworkParams p;
    p.width = 4;
    p.height = 4;
    return p;
  }();
  noc::XyRouting xy;
  noc::Network net{params, &xy};
  noc::SimConfig sim;

  explicit McastRelayRig(int threads) {
    net.set_endpoints(params.shape().all_nodes(),
                      noc::make_traffic("uniform", 16));
    net.set_seed(11);
    const int group = net.add_multicast_group(params.shape().all_nodes());
    net.set_multicast(true);
    net.set_pre_tick_hook([this, group](Cycle now) {
      if (now % 17 == 0 && now < 700)
        net.ni(static_cast<NodeId>((now / 17) * 5 % 16))
            .send_multicast(now, group, 0, 4);
    });
    net.set_sim_threads(threads);
    sim.warmup = 100;
    sim.measure = 400;
    sim.drain_max = 5000;
    sim.injection_rate = 0.12;
  }
  noc::SimResults run(const noc::CheckpointConfig& ckpt) {
    return noc::run_simulation(net, sim, ckpt);
  }
};

/// A 4x4 XY mesh under uniform 0.15 with storm_params() faults and
/// end-to-end protection, so retransmissions are in flight mid-run.
struct ProtectedRig {
  noc::NetworkParams params = [] {
    noc::NetworkParams p;
    p.width = 4;
    p.height = 4;
    return p;
  }();
  noc::XyRouting xy;
  noc::Network net{params, &xy};
  fault::FaultInjector injector{params.shape(), storm_params()};
  noc::SimConfig sim;

  explicit ProtectedRig(int threads) {
    net.set_endpoints(params.shape().all_nodes(),
                      noc::make_traffic("uniform", 16));
    net.set_seed(13);
    const noc::ProtectionParams prot = storm_params().protection();
    net.enable_resilience(&injector, &prot);
    net.set_sim_threads(threads);
    sim.warmup = 200;
    sim.measure = 800;
    sim.drain_max = 20000;
    sim.injection_rate = 0.15;
    sim.watchdog_cycles = 50000;
  }
  noc::SimResults run(noc::CheckpointConfig ckpt) {
    ckpt.extras.emplace_back("fault", &injector);
    return noc::run_simulation(net, sim, ckpt);
  }
};

/// A 6x6 XY mesh with 1-5 cycle links, dynamic gating (a 6-cycle wake-up
/// after 2 idle cycles) and router 14 frozen from cycle 0, under uniform
/// 0.06 from every node.  Router 14 never reads its inputs, so the flits
/// sent to it pile up there: by cycle 400 its 5-cycle input from router 15
/// holds a whole credit window (4 VCs x 4 flits) that has arrived but was
/// never buffered, while the routers around it gate and wake.
struct FrozenWindowRig {
  static constexpr NodeId kFrozen = 14;
  static constexpr NodeId kFeeder = 15;
  noc::NetworkParams params = [] {
    noc::NetworkParams p;
    p.width = 6;
    p.height = 6;
    p.wakeup_latency = 6;
    p.gate_idle_threshold = 2;
    return p;
  }();
  noc::XyRouting xy;
  noc::Network net{params, &xy,
                   [](NodeId a, NodeId b) { return 1 + (a * 7 + b) % 5; }};
  fault::FaultInjector injector{params.shape(), [] {
                                  fault::FaultParams fp;
                                  fp.enabled = true;
                                  fp.stuck = {kFrozen};
                                  fp.stuck_from = 0;
                                  return fp;
                                }()};
  noc::SimConfig sim;

  explicit FrozenWindowRig(int threads) {
    net.set_endpoints(params.shape().all_nodes(),
                      noc::make_traffic("uniform", 36));
    net.set_seed(17);
    net.set_dynamic_gating(true);
    net.enable_resilience(&injector, nullptr);
    net.set_sim_threads(threads);
    sim.warmup = 200;
    sim.measure = 800;
    sim.drain_max = 1500;
    sim.injection_rate = 0.06;
  }
  noc::SimResults run(noc::CheckpointConfig ckpt) {
    ckpt.extras.emplace_back("fault", &injector);
    return noc::run_simulation(net, sim, ckpt);
  }
};

TEST(ReservedSlots, FrozenRouterHoldsAWholeCreditWindowUnbuffered) {
  for (const int threads : {1, 3}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(threads));
    FrozenWindowRig rig(threads);
    noc::CheckpointConfig stop;
    stop.stop_at = 400;
    ASSERT_TRUE(rig.run(stop).interrupted);
    const noc::Network& net = rig.net;
    ASSERT_EQ(net.link_latency(FrozenWindowRig::kFeeder,
                               FrozenWindowRig::kFrozen),
              5);
    const int out = net.topology().port_to(FrozenWindowRig::kFeeder,
                                           FrozenWindowRig::kFrozen);
    const int in = net.topology().port_to(FrozenWindowRig::kFrozen,
                                          FrozenWindowRig::kFeeder);
    // Every credit of the link is spent and nothing is buffered, so by
    // credit conservation all num_vcs * vc_depth flits are on the link.
    for (int vc = 0; vc < rig.params.num_vcs; ++vc) {
      EXPECT_EQ(net.router(FrozenWindowRig::kFeeder).output_credits(out, vc),
                0);
      EXPECT_EQ(net.router(FrozenWindowRig::kFrozen).buffered_flits(in, vc),
                0);
    }
    net.check_credit_conservation();
    net.check_flit_conservation();
    net.check_packet_records();
  }
}

TEST(ReservedSlots, FlitsThatWouldOverfillAnInputVcAreRejected) {
  // A 2x1 mesh whose router 1 is frozen: four single-flit packets from
  // node 0 fill the link into it, a whole credit window (2 VCs x 2 flits)
  // that router 1 never buffers.
  noc::NetworkParams p;
  p.width = 2;
  p.height = 1;
  p.num_vcs = 2;
  p.vc_depth = 2;
  const noc::XyRouting xy;
  fault::FaultParams fp;
  fp.enabled = true;
  fp.stuck = {1};
  fault::FaultInjector injector(p.shape(), fp);
  noc::Network net(p, &xy);
  net.enable_resilience(&injector, nullptr);
  for (int i = 0; i < 4; ++i) net.ni(0).send_packet(0, 1, 0, 1);
  net.run(40);
  const int east = net.topology().port_to(0, 1);
  for (int vc = 0; vc < 2; ++vc)
    ASSERT_EQ(net.router(0).output_credits(east, vc), 0);
  snapshot::Writer w;
  net.save_state(w);
  const std::vector<std::uint8_t> good = w.bytes();

  // The link's section: the first "pipe" section holding four flits.
  // After its name and length come the latency and the count, then per
  // flit its ready cycle and the 85-byte flit record, whose VC is at
  // byte 34.
  const std::string name = "pipe";
  std::size_t flits = 0;
  for (std::size_t at = 0; at + 36 <= good.size() && flits == 0; ++at) {
    if (good[at] == name.size() &&
        std::equal(name.begin(), name.end(), good.begin() + at + 8) &&
        good[at + 28] == 4)
      flits = at + 36;
  }
  ASSERT_NE(flits, 0u);
  constexpr std::size_t kEntry = 8 + 85;
  constexpr std::size_t kVc = 8 + 34;
  int on_vc1 = 0;
  std::vector<std::uint8_t> bad = good;
  for (std::size_t i = 0; i < 4; ++i)
    if (good[flits + i * kEntry + kVc] == 1 && on_vc1++ == 0)
      bad[flits + i * kEntry + kVc] = 0;  // one VC-1 flit onto VC 0
  ASSERT_EQ(on_vc1, 2);

  noc::Network restored(p, &xy);
  snapshot::Reader ok(good);
  EXPECT_NO_THROW(restored.load_state(ok));
  noc::Network overfilled(p, &xy);
  snapshot::Reader r(bad);
  try {
    overfilled.load_state(r);
    ADD_FAILURE() << "a VC-0 flit past the credit window was accepted";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("overfill"), std::string::npos)
        << e.what();
  }
}

// The two files below were written by the build whose flits still carried
// every packet field (packet, created, injected, ack_for, src), cut mid-run
// with multicast relays and protection retransmissions in flight.  This
// build writes the same bytes at the same cycle, rebuilds the records from
// the flits on load, and finishes on that build's uninterrupted numbers,
// pinned below.
std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

template <typename Rig>
void expect_older_checkpoint_resumes(const std::string& file, Cycle cut,
                                     const std::function<void(
                                         const noc::SimResults&)>& pins) {
  const std::string legacy = std::string(NOCS_TEST_DATA_DIR) + "/" + file;
  const std::string fresh = tmp_path("fresh_" + file);
  noc::CheckpointConfig stop;
  stop.save_path = fresh;
  stop.stop_at = cut;
  ASSERT_TRUE(Rig(1).run(stop).interrupted);
  EXPECT_EQ(read_bytes(fresh), read_bytes(legacy));
  std::remove(fresh.c_str());

  for (const int threads : {1, 3}) {
    SCOPED_TRACE(file + " sim_threads=" + std::to_string(threads));
    const noc::SimResults reference = Rig(threads).run({});
    pins(reference);
    noc::CheckpointConfig resume;
    resume.restore_path = legacy;
    Rig rig(threads);
    const noc::SimResults resumed = rig.run(resume);
    EXPECT_FALSE(resumed.interrupted);
    expect_identical(resumed, reference);
  }
}

TEST(SnapshotResume, MulticastRelayCheckpointFromAnOlderBuildResumesExactly) {
  expect_older_checkpoint_resumes<McastRelayRig>(
      "mcast_relays_4x4_cut200.nocsnap", 200, [](const noc::SimResults& r) {
        EXPECT_EQ(r.cycles, 500u);
        EXPECT_EQ(r.packets_ejected, 451u);
        EXPECT_EQ(r.avg_packet_latency, 57.086474501108633);
        EXPECT_EQ(r.counters.buffer_writes, 8183u);
        EXPECT_EQ(r.counters.mc_replications, 347u);
      });
}

TEST(SnapshotResume, ProtectedCheckpointFromAnOlderBuildResumesExactly) {
  expect_older_checkpoint_resumes<ProtectedRig>(
      "protected_4x4_cut600.nocsnap", 600, [](const noc::SimResults& r) {
        EXPECT_EQ(r.cycles, 1102u);
        EXPECT_EQ(r.packets_ejected, 394u);
        EXPECT_EQ(r.avg_packet_latency, 35.134517766497481);
        EXPECT_EQ(r.counters.buffer_writes, 13043u);
        EXPECT_EQ(r.resilience.retransmissions, 59u);
      });
}

// Written by the build whose router inputs were flit pipes, cut at cycle
// 400 with 16 flits waiting on router 14's 5-cycle input (more than the
// link's latency + 1).  This build writes the same bytes from its arrival
// logs and reserved slots, and restores them into the same places.
TEST(SnapshotResume, FrozenWindowCheckpointFromAnOlderBuildResumesExactly) {
  expect_older_checkpoint_resumes<FrozenWindowRig>(
      "frozen_window_6x6_cut400.nocsnap", 400, [](const noc::SimResults& r) {
        EXPECT_EQ(r.cycles, 2500u);
        EXPECT_EQ(r.packets_generated, 334u);
        EXPECT_EQ(r.packets_ejected, 195u);
        EXPECT_EQ(r.avg_packet_latency, 49.830769230769249);
        EXPECT_EQ(r.accepted_rate, 0.033854166666666664);
        EXPECT_EQ(r.counters.buffer_writes, 9868u);
        EXPECT_EQ(r.counters.xbar_traversals, 9325u);
        EXPECT_EQ(r.counters.vc_allocs, 1902u);
        EXPECT_EQ(r.counters.sa_arbitrations, 9325u);
        EXPECT_EQ(r.counters.link_flits, 7630u);
        EXPECT_EQ(r.counters.active_cycles, 78999u);
        EXPECT_EQ(r.counters.idle_active_cycles, 65142u);
        EXPECT_EQ(r.counters.gated_cycles, 8925u);
        EXPECT_EQ(r.counters.waking_cycles, 2076u);
        EXPECT_EQ(r.counters.wake_events, 346u);
      });
}

TEST(SnapshotResume, MissingExtraComponentRejected) {
  // A checkpoint taken with a fault injector cannot be restored without
  // one (the extras section would be left unread).
  const noc::SimConfig sim = short_sim(true);
  const std::string path = tmp_path("missing_extra.nocsnap");

  Rig a = make_rig(true);
  noc::CheckpointConfig stop;
  stop.save_path = path;
  stop.stop_at = 400;
  (void)noc::run_simulation(*a.net, sim, ckpt_for(a, stop));

  Rig b = make_rig(true);
  noc::CheckpointConfig resume;
  resume.restore_path = path;  // extras deliberately left empty
  EXPECT_THROW(noc::run_simulation(*b.net, sim, resume),
               snapshot::SnapshotError);
  std::remove(path.c_str());
}

// --- resumable sweeps --------------------------------------------------------

/// Manifest fingerprint of a tiny_body() sweep: its rates and seed.
std::string tiny_fingerprint(const std::vector<double>& rates,
                             std::uint64_t seed) {
  std::string fp = "tiny-sweep:seed=" + std::to_string(seed) + ";rates=";
  for (const double r : rates) fp += json::format_number(r) + ',';
  return fp;
}

/// Task body of a tiny level-4 sweep: point i at rates[i], seeded
/// task_seed(seed, i), recorded as a report point.
std::function<json::Value(std::size_t)> tiny_body(
    const std::vector<double>& rates, std::uint64_t seed,
    int* calls = nullptr) {
  return [rates, seed, calls](std::size_t i) {
    if (calls != nullptr) ++*calls;
    auto b = sprint::make_noc_sprinting_network(noc::NetworkParams{}, 4,
                                                "uniform", task_seed(seed, i));
    noc::SimConfig sim;
    sim.warmup = 100;
    sim.measure = 400;
    sim.injection_rate = rates[i];
    json::Value point = to_json(noc::run_simulation(*b.network, sim));
    point.set("injection_rate", rates[i]);
    return point;
  };
}

/// The same sweep with no manifest: the reference every resumed run must
/// reproduce bit for bit.
std::vector<json::Value> plain_sweep(const std::vector<double>& rates,
                                     std::uint64_t seed) {
  return noc::run_resumable(rates.size(), 1, nullptr, nullptr,
                            tiny_body(rates, seed));
}

void expect_same_points(const std::vector<json::Value>& a,
                        const std::vector<json::Value>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].dump(), b[i].dump()) << "point " << i;
}

TEST(SweepResume, ManifestRecordsAndReplays) {
  const std::string path = tmp_path("sweep_manifest.nsrl");
  std::remove(path.c_str());
  const std::vector<double> rates = {0.05, 0.1, 0.15};
  const std::uint64_t seed = 21;
  const std::string fp = tiny_fingerprint(rates, seed);
  const auto plain = plain_sweep(rates, seed);

  {
    snapshot::TaskManifest manifest(path, fp);
    int calls = 0;
    const auto first = noc::run_resumable(rates.size(), 1, &manifest,
                                          nullptr,
                                          tiny_body(rates, seed, &calls));
    EXPECT_EQ(calls, 3);
    expect_same_points(first, plain);
  }

  // A fresh process re-running the same sweep replays every task from the
  // manifest without calling the body.
  {
    snapshot::TaskManifest manifest(path, fp);
    EXPECT_EQ(manifest.completed_count(), 3u);
    int calls = 0;
    const auto replayed = noc::run_resumable(
        rates.size(), 1, &manifest, nullptr, tiny_body(rates, seed, &calls));
    EXPECT_EQ(calls, 0);
    expect_same_points(replayed, plain);
  }
  std::remove(path.c_str());
}

TEST(SweepResume, PartialManifestRunsOnlyMissingTasks) {
  const std::string path = tmp_path("sweep_partial.nsrl");
  std::remove(path.c_str());
  const std::vector<double> rates = {0.05, 0.1, 0.15, 0.2};
  const std::uint64_t seed = 22;
  const std::string fp = tiny_fingerprint(rates, seed);

  // Simulate an interrupted sweep: only tasks 0 and 2 completed.
  {
    snapshot::TaskManifest manifest(path, fp);
    const auto body = tiny_body(rates, seed);
    manifest.record(0, body(0));
    manifest.record(2, body(2));
  }

  snapshot::TaskManifest manifest(path, fp);
  int calls = 0;
  const auto points = noc::run_resumable(rates.size(), 1, &manifest, nullptr,
                                         tiny_body(rates, seed, &calls));
  EXPECT_EQ(calls, 2);  // tasks 1 and 3 only
  EXPECT_EQ(manifest.completed_count(), 4u);
  expect_same_points(points, plain_sweep(rates, seed));
  std::remove(path.c_str());
}

TEST(SweepResume, FingerprintMismatchStartsFresh) {
  const std::string path = tmp_path("sweep_fingerprint.nsrl");
  std::remove(path.c_str());
  {
    snapshot::TaskManifest manifest(path, "fingerprint-a");
    manifest.record(0, json::Value::object());
  }
  snapshot::TaskManifest manifest(path, "fingerprint-b");
  EXPECT_EQ(manifest.completed_count(), 0u);
  EXPECT_FALSE(manifest.completed(0));
  std::remove(path.c_str());
}

TEST(SweepResume, DisabledManifestIsThePlainSweep) {
  const std::vector<double> rates = {0.05, 0.1};
  const std::uint64_t seed = 23;
  snapshot::TaskManifest disabled;
  int calls = 0;
  const auto points = noc::run_resumable(rates.size(), 1, &disabled, nullptr,
                                         tiny_body(rates, seed, &calls));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(disabled.completed_count(), 0u);
  expect_same_points(points, plain_sweep(rates, seed));
}

TEST(SweepResume, SimResultsJsonRoundTripIsExact) {
  auto b = sprint::make_noc_sprinting_network(noc::NetworkParams{}, 4,
                                              "uniform", task_seed(31, 0));
  noc::SimConfig sim;
  sim.warmup = 100;
  sim.measure = 400;
  sim.injection_rate = 0.18;
  const noc::SimResults r = noc::run_simulation(*b.network, sim);
  expect_identical(noc::sim_results_from_json(noc::to_json(r)), r);
}

// --- append-only record log (the serve ledger's framing) --------------------

std::vector<std::string> record_strings(const snapshot::RecordScan& scan) {
  std::vector<std::string> out;
  for (const auto& bytes : scan.records)
    out.emplace_back(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
  return out;
}

TEST(RecordLog, AppendsAndScansBack) {
  const std::string path = tmp_path("records_roundtrip.nsrl");
  std::remove(path.c_str());
  // Missing file: an empty, undamaged log (first daemon start).
  const snapshot::RecordScan empty = snapshot::scan_records(path);
  EXPECT_FALSE(empty.damaged);
  EXPECT_TRUE(empty.records.empty());
  EXPECT_EQ(empty.valid_bytes, 0u);

  const std::vector<std::string> payloads = {"{\"a\":1}", "", "x",
                                             std::string(5000, 'z')};
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  for (const std::string& p : payloads)
    ASSERT_TRUE(snapshot::append_record(
        f, reinterpret_cast<const std::uint8_t*>(p.data()), p.size()));
  std::fclose(f);

  const snapshot::RecordScan scan = snapshot::scan_records(path);
  EXPECT_FALSE(scan.damaged) << scan.damage;
  EXPECT_EQ(record_strings(scan), payloads);
  std::remove(path.c_str());
}

TEST(RecordLog, TruncatedTailYieldsValidPrefix) {
  const std::string path = tmp_path("records_truncated.nsrl");
  std::remove(path.c_str());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::string keep = "{\"keep\":true}";
  ASSERT_TRUE(snapshot::append_record(
      f, reinterpret_cast<const std::uint8_t*>(keep.data()), keep.size()));
  std::fclose(f);
  const std::size_t clean_size = snapshot::scan_records(path).valid_bytes;

  // kill -9 mid-append: header promises more payload than the file holds.
  f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const std::uint32_t magic = snapshot::kRecordMagic;
  const std::uint64_t len = 400;
  std::fwrite(&magic, sizeof magic, 1, f);
  std::fwrite(&len, sizeof len, 1, f);
  std::fwrite("short", 1, 5, f);
  std::fclose(f);

  const snapshot::RecordScan scan = snapshot::scan_records(path);
  EXPECT_TRUE(scan.damaged);
  EXPECT_FALSE(scan.damage.empty());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(record_strings(scan).front(), keep);
  // valid_bytes is the truncation point that makes the file clean again.
  EXPECT_EQ(scan.valid_bytes, clean_size);
  std::remove(path.c_str());
}

TEST(RecordLog, CorruptPayloadByteStopsTheScanThere) {
  const std::string path = tmp_path("records_bitflip.nsrl");
  std::remove(path.c_str());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  for (const char* p : {"first", "second", "third"})
    ASSERT_TRUE(snapshot::append_record(
        f, reinterpret_cast<const std::uint8_t*>(p), std::strlen(p)));
  std::fclose(f);

  // Flip one byte inside the *last* record's payload.
  f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -2, SEEK_END);
  std::fputc('X', f);
  std::fclose(f);

  const snapshot::RecordScan scan = snapshot::scan_records(path);
  EXPECT_TRUE(scan.damaged);
  EXPECT_EQ(record_strings(scan),
            (std::vector<std::string>{"first", "second"}));
  std::remove(path.c_str());
}

// --- torn and foreign manifests --------------------------------------------

std::string slurp_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Byte offsets at which each record frame of a record log starts.
std::vector<std::size_t> record_starts(const std::string& path) {
  std::vector<std::size_t> starts;
  std::size_t at = 0;
  for (const auto& bytes : snapshot::scan_records(path).records) {
    starts.push_back(at);
    at += 4 + 8 + 8 + bytes.size();
  }
  return starts;
}

TEST(ManifestRecovery, TornLastRecordReplaysEveryEarlierTask) {
  const std::string path = tmp_path("manifest_torn.nsrl");
  const std::string cut_path = tmp_path("manifest_torn_cut.nsrl");
  std::remove(path.c_str());
  const std::vector<double> rates = {0.05, 0.1, 0.15};
  const std::uint64_t seed = 33;
  const std::string fp = tiny_fingerprint(rates, seed);
  const auto plain = plain_sweep(rates, seed);
  {
    snapshot::TaskManifest manifest(path, fp);
    noc::run_resumable(rates.size(), 1, &manifest, nullptr,
                       tiny_body(rates, seed));
  }
  const std::string whole = slurp_bytes(path);
  const std::vector<std::size_t> starts = record_starts(path);
  ASSERT_EQ(starts.size(), 4u);  // header + three tasks
  const std::size_t last = starts.back();

  // A kill mid-append leaves any prefix of the last record on disk: every
  // cut inside it replays exactly tasks 0 and 1 and trims the torn bytes.
  for (std::size_t cut = last + 1; cut < whole.size(); ++cut) {
    write_bytes(cut_path, whole.substr(0, cut));
    snapshot::TaskManifest manifest(cut_path, fp);
    ASSERT_EQ(manifest.completed_count(), 2u) << "cut at byte " << cut;
    EXPECT_FALSE(manifest.completed(2)) << "cut at byte " << cut;
    EXPECT_EQ(manifest.result(0).dump(), plain[0].dump());
    EXPECT_EQ(manifest.result(1).dump(), plain[1].dump());
    EXPECT_EQ(slurp_bytes(cut_path), whole.substr(0, last));
  }

  // The resumed sweep re-runs only the torn task and leaves the file a
  // byte-identical copy of the uninterrupted one.
  snapshot::TaskManifest manifest(cut_path, fp);
  int calls = 0;
  const auto points = noc::run_resumable(rates.size(), 1, &manifest, nullptr,
                                         tiny_body(rates, seed, &calls));
  EXPECT_EQ(calls, 1);
  expect_same_points(points, plain);
  EXPECT_EQ(slurp_bytes(cut_path), whole);
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(ManifestRecovery, TornHeaderFrameStartsFresh) {
  const std::string path = tmp_path("manifest_torn_header.nsrl");
  std::remove(path.c_str());
  const std::vector<double> rates = {0.05, 0.1};
  const std::string fp = tiny_fingerprint(rates, 34);
  std::string header;
  {
    snapshot::TaskManifest manifest(path, fp);
    header = slurp_bytes(path);
  }
  for (std::size_t cut = 1; cut < header.size(); ++cut) {
    write_bytes(path, header.substr(0, cut));
    snapshot::TaskManifest manifest(path, fp);
    EXPECT_EQ(manifest.completed_count(), 0u) << "cut at byte " << cut;
    EXPECT_EQ(slurp_bytes(path), header) << "cut at byte " << cut;
  }
  snapshot::TaskManifest manifest(path, fp);
  int calls = 0;
  noc::run_resumable(rates.size(), 1, &manifest, nullptr,
                     tiny_body(rates, 34, &calls));
  EXPECT_EQ(calls, 2);
  std::remove(path.c_str());
}

TEST(ManifestRecovery, RefusesAFileThatIsNotARecordLog) {
  // A manifest of the old single-JSON-document format, or any file that
  // does not begin with a record frame: refused by name, bytes untouched.
  const std::string path = tmp_path("manifest_foreign.json");
  const std::string text =
      "{\"magic\": \"nocs-sweep-manifest\", \"version\": 1, \"completed\": {}}\n";
  write_bytes(path, text);
  const std::vector<double> rates = {0.05, 0.1};
  try {
    snapshot::TaskManifest manifest(path, tiny_fingerprint(rates, 35));
    ADD_FAILURE() << "a foreign file was opened as a manifest";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(slurp_bytes(path), text);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nocs
