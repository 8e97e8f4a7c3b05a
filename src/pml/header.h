// The PML wire header.
//
// Every PTL fragment leads with this 64-byte header (the paper compares it
// against MPICH-QsNetII's 32-byte Tport header when explaining the
// small-message latency gap in Fig. 10). Matching is done in the PML — by
// design, so request queues can be shared across networks — never in the
// NIC. Control fragments (CTS, FINs) reuse the same frame with a
// different `kind`; their extra fields ride in a small body after the
// header.
#pragma once

#include <cstdint>

namespace oqs::pml {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

// Fragment kinds shared by the PTL implementations.
enum class FragKind : std::uint8_t {
  kEager = 1,       // whole message inline
  // The paper's one-fragment rendezvous shapes (§4.2). The RTS of either
  // carries an RdvBody and the inline prefix; hdr.cookie is the sender's
  // send id.
  kRendezvous = 2,
  kAck = 3,         // CTS, receiver -> sender (write shape): a CtsBody
  kFin = 4,         // sender -> receiver: the put landed (hdr.status)
  kComplete = 6,    // NIC -> own completion queue: local descriptor done
  kGoodbye = 7,     // connection teardown handshake
  // 5 and 8 are unused.
  kNack = 9,        // reliability: resend frames starting at hdr.cookie
  kFrameAck = 10,   // reliability: explicit cumulative ack (hdr.ack_seq)
  // BML multi-rail striping (no inline payload; the body is the stripe map:
  // per-rail exposed regions + per-stripe rail/offset/length assignments).
  kRendezvousStriped = 11,
  // receiver -> sender: stripe hdr.aux of message hdr.cookie landed
  // (hdr.status carries the outcome); the sender aggregates these into one
  // completion. The read shape's FIN_ACK is the FIN of its one fragment.
  kStripeFin = 12,
  // Pipelined rendezvous: an eagerly pushed pipeline fragment riding behind
  // the RTS before the CTS returns. hdr.cookie is the sender's send
  // id, hdr.aux the absolute byte offset, hdr.len the chunk length.
  kPipeFrag = 13,
  // TCP PTL stripe emulation (no RDMA engine): the puller asks the exposing
  // side to stream a region slice back. kPullReq carries region/offset/len;
  // kPullResp returns the bytes with the pull id in hdr.cookie.
  kPullReq = 14,
  kPullResp = 15,
};

// MatchHeader.flags bits.
inline constexpr std::uint8_t kFlagChecksummed = 0x1;  // CRC32C trailer present
inline constexpr std::uint8_t kFlagControl = 0x2;      // bypasses sequencing

struct MatchHeader {
  std::int32_t ctx = 0;       // communicator context id
  std::int32_t src_rank = 0;  // sender's rank within ctx
  std::int32_t dst_rank = 0;
  std::int32_t tag = 0;
  std::uint64_t len = 0;  // total message payload bytes
  std::uint64_t seq = 0;  // per (src process -> dst process) sequence
  std::int32_t src_gid = 0;   // sender's global process id
  std::int32_t dst_gid = 0;
  FragKind kind = FragKind::kEager;
  std::uint8_t flags = 0;
  std::uint16_t frame_seq = 0;  // per-peer frame sequence (reliability mode)
  std::uint16_t status = 0;     // carries a Status code on FIN/FIN_ACK
  // Cumulative piggybacked acknowledgement (reliability mode): every frame
  // to a peer reports the last in-order frame_seq received from it, so the
  // sender prunes its retransmission log without dedicated ack traffic.
  std::uint16_t ack_seq = 0;
  std::uint64_t cookie = 0;   // send- or recv-request handle, kind-dependent
  std::uint64_t aux = 0;      // scheme-dependent (e.g. exposed E4 address)
};
static_assert(sizeof(MatchHeader) == 64, "the paper's PML header is 64 bytes");

inline constexpr std::uint32_t kMatchHeaderBytes = 64;

// kRendezvous body: 16 B whatever the shape, which fixes the RTS frame and
// so Fig. 7's inline prefix. `region` is the sender's exposed payload on the
// arrival rail (read shape), or 0: the receiver sends a CTS (write shape).
struct RdvBody {
  std::uint64_t region = 0;
  std::uint64_t pad = 0;
};

// kAck (CTS) body: the receiver's id, echoed in the FIN, and the region the
// sender puts the payload into.
struct CtsBody {
  std::uint64_t recv_cookie = 0;
  std::uint64_t region = 0;
};

}  // namespace oqs::pml
