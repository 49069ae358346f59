// Network configuration parameters (Table 1 of the paper).
#pragma once

#include "common/assert.hpp"
#include "common/geometry.hpp"
#include "noc/flit.hpp"

namespace nocs::noc {

/// Static parameters of the simulated network.  Defaults reproduce Table 1:
/// 4x4 2-D mesh, classic five-stage router pipeline, 4 VCs per port, 4-flit
/// buffers per VC, 5-flit packets, 16-byte flits.
struct NetworkParams {
  int width = 4;             ///< mesh columns
  int height = 4;            ///< mesh rows
  int num_vcs = 4;           ///< virtual channels per input port
  int vc_depth = 4;          ///< flit buffers per VC
  int packet_length = 5;     ///< flits per packet
  int flit_bytes = 16;       ///< flit payload width
  int link_latency = 1;      ///< cycles per link traversal
  int wakeup_latency = 8;    ///< cycles for a gated router to wake
  int gate_idle_threshold = 16;  ///< idle cycles before dynamic gating engages

  /// Router pipeline depth: 5 = classic five-stage (Table 1: BW, RC, VA,
  /// SA, ST); 3 = aggressive pipeline with lookahead route compute folded
  /// into buffer write and speculative VA+SA in one cycle.
  int pipeline_stages = 5;

  /// Message classes (virtual networks).  VCs are partitioned evenly
  /// across classes and the VC allocator never crosses the partition —
  /// the standard protocol-deadlock-avoidance mechanism coherence traffic
  /// (request vs response) requires.  1 = single class (synthetic traffic).
  int num_classes = 1;

  MeshShape shape() const { return MeshShape{width, height}; }
  int num_nodes() const { return width * height; }

  int vcs_per_class() const { return num_vcs / num_classes; }
  /// The message class VC `vc` belongs to.
  int class_of_vc(VcId vc) const { return vc / vcs_per_class(); }
  /// First VC of class `cls`.
  VcId first_vc_of(int cls) const { return cls * vcs_per_class(); }

  /// Validates the invariants every component assumes.
  void validate() const {
    NOCS_EXPECTS(width >= 2 && height >= 1);
    // Flit carries the VC and class as int8 and the flit index as int16.
    NOCS_EXPECTS(num_vcs >= 1 && num_vcs <= kMaxVcs && vc_depth >= 1);
    // Credits and buffer slot indices are int16 (kMaxPortFlits).
    NOCS_EXPECTS(vc_depth <= kMaxPortFlits &&
                 num_vcs * vc_depth <= kMaxPortFlits);
    NOCS_EXPECTS(packet_length >= 1 && packet_length <= kMaxPacketLength);
    NOCS_EXPECTS(flit_bytes >= 1);
    NOCS_EXPECTS(link_latency >= 1);
    NOCS_EXPECTS(wakeup_latency >= 0);
    NOCS_EXPECTS(num_classes >= 1 && num_classes <= kMaxVcs &&
                 num_vcs % num_classes == 0);
    NOCS_EXPECTS(pipeline_stages == 3 || pipeline_stages == 5);
  }
};

}  // namespace nocs::noc
