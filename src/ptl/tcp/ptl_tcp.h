// PTL/TCP — the reference transport the paper's Open MPI started from.
//
// Runs the same PML protocol over a simulated kernel socket path: every
// frame pays syscall + user/kernel copy + protocol-stack time, and all data
// moves through send/recv copies (no RDMA). Eager messages ride one frame;
// long messages take the BML's fragment schedule like every other rail,
// with pulls emulated as request/response pairs over the socket. Exists (a)
// as the semantic contrast the paper draws — poll/select progress, copies,
// OS overhead — and (b) to exercise concurrent multi-network scheduling in
// the PML.
//
// No reliable framing: the Ethernet model never drops or corrupts a frame,
// and the BML's per-fragment checksum already covers pulls over this rail
// when the primary rail verifies payloads. Go-back-N framing
// (ptl::ReliableStream) belongs to the Elan4 PTL.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "elan4/qsnet.h"
#include "net/ethernet.h"
#include "pml/endpoint.h"
#include "pml/pml.h"
#include "pml/ptl.h"

namespace oqs::ptl_tcp {

// Per-peer connection state: the peer's Ethernet address.
struct TcpEndpoint final : pml::Endpoint {
  int addr = -1;
};

class PtlTcp final : public pml::Ptl,
                     private sim::PollPlan,
                     private net::EthNet::Sink {
 public:
  PtlTcp(pml::Pml& pml, elan4::QsNet& net, int node);
  ~PtlTcp() override;

  const std::string& name() const override { return name_; }
  std::size_t eager_limit() const override { return net_.params().tcp_eager; }
  double bandwidth_weight() const override { return net_.params().tcp_wire_mbps; }
  double latency_ns() const override {
    // One-way small-frame estimate: syscall + stack + wire propagation.
    const ModelParams& p = net_.params();
    return static_cast<double>(p.syscall_ns + p.tcp_stack_ns + p.eth_latency_ns);
  }
  std::vector<std::uint8_t> contact() const override;
  Status add_peer(int gid, const pml::ContactInfo& info) override;
  bool reaches(int gid) const override {
    auto it = peers_.find(gid);
    return it != peers_.end() && it->second.alive;
  }
  pml::Endpoint* endpoint(int gid) override {
    auto it = peers_.find(gid);
    return it == peers_.end() ? nullptr : &it->second;
  }
  bool wired() const override {
    for (const auto& [gid, peer] : peers_)
      if (peer.alive) return true;
    return false;
  }
  void send_first(pml::SendRequest& req) override;

  // BML striping hooks: no RDMA engine here, so a "pull" is a request/
  // response pair over the socket (kPullReq / kPullResp). The TCP rail
  // thereby joins the same fragment schedule as the Elan4 rails.
  std::uint64_t stripe_expose(const void* base, std::size_t len) override;
  void stripe_unexpose(std::uint64_t region) override {
    stripe_regions_.erase(region);
  }
  std::uint64_t stripe_pull(int gid, std::uint64_t region, std::size_t offset,
                            void* dst, std::size_t len,
                            std::function<void(Status)> done,
                            const pml::MatchHeader* fin) override;
  void stripe_cancel(std::uint64_t pull_id) override {
    stripe_pulls_.erase(pull_id);
  }
  void bml_post(int gid, const pml::MatchHeader& hdr, const void* body,
                std::size_t body_len) override;
  // Pushed pipeline fragments use the copy-path chunk size, not the 64 KB
  // eager limit: one chunk per frame keeps the socket copies bounded.
  std::size_t pipeline_push_unit() const override {
    return net_.params().tcp_chunk;
  }

  int progress() override;
  // One poll point: the poll() syscall's charge, then a probe of the
  // kernel-side inbox (changed() is notified on every arrival).
  sim::PollPlan& poll_plan() override { return *this; }
  void leave() override;
  void finalize() override;
  void peer_failed(int gid) override;
  void halt() override;

  std::uint64_t tx_bytes() const { return tx_bytes_; }

 private:
  struct StripeRegion {
    const std::uint8_t* base = nullptr;
    std::size_t len = 0;
  };
  struct StripePull {
    std::uint8_t* dst = nullptr;
    std::size_t len = 0;
    std::function<void(Status)> done;
    int gid = -1;  // peer being pulled from (dead-peer purge)
  };

  // --- sim::PollPlan ---
  int sweep(std::size_t from, bool paid) override;
  int watch(sim::IdleWait& w) override {
    return w.watch(&changed_) ? 1 : -1;
  }
  bool quiet() const override { return inbox_.empty(); }
  sim::Time point_ns() const override { return net_.params().host_poll_ns; }

  // net::EthNet::Sink — frames land in the kernel-side inbox.
  void eth_deliver(int src_addr, std::vector<std::uint8_t> frame) override;

  void post_frame(TcpEndpoint& peer, const pml::MatchHeader& hdr,
                  const void* payload, std::size_t payload_len);
  // Our goodbye to peer: the last frame it gets from us.
  void say_goodbye(TcpEndpoint& peer);
  // One to every contacted peer outside the dead-set that has none yet.
  void say_goodbyes();
  void handle_frame(std::vector<std::uint8_t>&& frame);
  void charge_io(std::size_t bytes);

  pml::Pml& pml_;
  elan4::QsNet& net_;
  int node_;
  std::string name_ = "tcp";
  int addr_ = -1;
  std::map<int, TcpEndpoint> peers_;
  std::map<std::uint64_t, StripeRegion> stripe_regions_;
  std::map<std::uint64_t, StripePull> stripe_pulls_;
  std::deque<std::vector<std::uint8_t>> inbox_;
  std::uint64_t next_id_ = 1;
  std::uint64_t tx_bytes_ = 0;
  bool left_ = false;  // leave() ran: goodbyes said
  bool finalized_ = false;
  bool halted_ = false;  // crashed in place: inbound frames go unread
};

}  // namespace oqs::ptl_tcp
