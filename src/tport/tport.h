// Quadrics Tport — the tagged-message layer under MPICH-QsNetII.
//
// The crucial architectural difference from the paper's PTL: tag matching
// happens ON THE NIC. The host posts send/receive descriptors and then
// polls a completion flag; header processing, matching against the posted-
// receive list, landing payload in the user buffer, and the large-message
// pipeline never involve the host CPU. Headers are 32 bytes (vs the PML's
// 64). These two properties are exactly what the paper credits for
// MPICH-QsNetII's lower small-message latency and better mid-range
// bandwidth (Fig. 10, §6.5).
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "elan4/device.h"
#include "elan4/qsnet.h"

namespace oqs::tport {

constexpr std::uint32_t kTportHeaderBytes = 32;
constexpr std::int64_t kAnyVpid = -1;
// Sends up to this size complete locally once the NIC has read the host
// buffer (the receiver buffers them unexpectedly if unmatched); larger
// messages complete on the delivery acknowledgement.
constexpr std::size_t kTportEagerMax = 32768;

class Tport;

// Directory connecting Tports over one machine (the libelan state segment).
class TportDomain {
 public:
  explicit TportDomain(elan4::QsNet& net) : net_(net) {}
  elan4::QsNet& net() { return net_; }

 private:
  friend class Tport;
  elan4::QsNet& net_;
  std::map<elan4::Vpid, Tport*> ports_;
};

class Tport {
 public:
  // Host-visible completion state of a transmit.
  struct TxReq {
    sim::Word<bool> done;
    // Set with done when the send could not be delivered (dead or
    // unregistered destination) — callers can distinguish failure from
    // success instead of both looking like completion.
    bool failed = false;
    // The caller has observed completion (wait() returned); the request
    // may be reclaimed at the next Tport call.
    bool harvested = false;
  };
  // Host-visible completion state of a posted receive.
  struct RxReq {
    sim::Word<bool> done;
    // Set with done when the receive became unsatisfiable: its named
    // source vpid was declared failed while the receive was pending (or
    // mid-stream). len/src/tag are not meaningful.
    bool failed = false;
    std::size_t len = 0;          // actual payload bytes
    elan4::Vpid src = elan4::kInvalidVpid;
    std::uint64_t tag = 0;
    bool truncated = false;
    bool harvested = false;
  };

  // Claims an Elan context on `node` and registers in the domain.
  Tport(TportDomain& domain, int node);
  ~Tport();
  Tport(const Tport&) = delete;
  Tport& operator=(const Tport&) = delete;

  elan4::Vpid vpid() const { return device_->vpid(); }
  int node() const { return node_; }

  // Post a tagged send; the NIC streams fragments without further host
  // involvement. The handle completes when the payload is delivered (or
  // consumed into the peer's unexpected buffer).
  TxReq* send(elan4::Vpid dst, std::uint64_t tag, const void* buf, std::size_t len);

  // Post a tagged receive. `src` may be kAnyVpid; `tag_mask` selects which
  // tag bits must equal `tag` (all-ones = exact, 0 = any).
  RxReq* recv(elan4::Vpid src, std::uint64_t tag, std::uint64_t tag_mask, void* buf,
              std::size_t capacity);

  // Poll-wait on completion flags (MPICH-QsNetII's progress discipline):
  // one charged read per poll, parked while the flag is unwritten.
  template <class Req>
  void wait(Req* r) {
    reap(r);
    device_->host().wait_until(
        sim::Cadence::kEventWord,
        sim::watched(&r->done.signal(), [r] { return bool(r->done); }));
    r->harvested = true;
  }

  // The capability layer declared `dead` failed (libelan's exception
  // delivery path). Every posted receive naming the corpse as its source
  // errors out (done + failed) and leaves the NIC match list, and its
  // half-streamed inbound messages are dropped — without this, the
  // requests pin their table slots forever (reap() only frees observed
  // completions) and the partial bounce buffers leak. Messages fully
  // delivered before the failure stay consumable, matching MPI semantics.
  void peer_failed(elan4::Vpid dead);

  std::size_t unexpected_bytes() const { return unexpected_bytes_; }
  // Live request-table sizes (bounded-memory tests): completed requests are
  // reclaimed lazily once their completion has been observed by wait().
  std::size_t outstanding_tx() const { return tx_reqs_.size(); }
  std::size_t outstanding_rx() const { return rx_reqs_.size(); }

 private:
  struct PostedRecv {
    RxReq* req;
    elan4::Vpid src;
    std::uint64_t tag;
    std::uint64_t mask;
    char* buf;
    std::size_t capacity;
  };
  struct Unexpected {
    elan4::Vpid src;
    std::uint64_t tag;
    std::vector<std::uint8_t> data;  // NIC bounce buffer
    bool complete;                   // all fragments arrived
    RxReq* claimed_by = nullptr;     // matched while still inbound
    char* claimed_buf = nullptr;
    std::size_t claimed_cap = 0;
  };
  // Reassembly state of one inbound message on the NIC.
  struct Inbound {
    elan4::Vpid src;
    std::uint64_t tag;
    std::size_t total;
    std::size_t received = 0;
    // Either a matched posted receive or an unexpected bounce entry.
    PostedRecv matched{};
    bool is_matched = false;
    std::list<Unexpected>::iterator unex;
    TxReq* tx_done = nullptr;  // sender's flag, set on final fragment
    int src_node = -1;
  };

  // Free completed requests whose completion the caller has already
  // observed. Runs at API entry only — never mid-wait — so fields of a
  // request remain readable after wait() returns until the caller's next
  // Tport call. `keep` (the request being waited on) is never reclaimed.
  void reap(const void* keep);

  void rx_fragment(std::uint64_t msg_id, elan4::Vpid src, int src_node,
                   std::uint64_t tag, std::size_t total, std::uint64_t offset,
                   std::vector<std::uint8_t> payload, bool first, bool last,
                   TxReq* tx_done);
  void finish_inbound(Inbound& in);
  bool try_match(PostedRecv& pr, elan4::Vpid src, std::uint64_t tag) const;

  TportDomain& domain_;
  int node_;
  std::unique_ptr<elan4::Elan4Device> device_;
  std::list<PostedRecv> posted_;       // NIC-resident posted-receive list
  std::list<Unexpected> unexpected_;   // NIC bounce storage
  std::map<std::uint64_t, Inbound> inbound_;
  std::deque<std::unique_ptr<TxReq>> tx_reqs_;
  std::deque<std::unique_ptr<RxReq>> rx_reqs_;
  std::uint64_t next_msg_id_ = 1;
  std::size_t unexpected_bytes_ = 0;
};

}  // namespace oqs::tport
