// PML send/receive requests.
//
// Requests are the unit of progress accounting: PTLs report delivered bytes
// through Pml::send_progress / recv_progress, and a request completes when
// all its payload bytes are accounted for (the paper's Fig. 2 flow).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "base/intrusive_list.h"
#include "base/status.h"
#include "dtype/datatype.h"
#include "pml/header.h"
#include "sim/sync.h"

namespace oqs::pml {

class Request {
 public:
  enum class Kind { kSend, kRecv };

  Request(sim::Engine& engine, Kind kind)
      : kind_(kind), done_(engine) {}
  virtual ~Request() = default;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  Kind kind() const { return kind_; }
  bool complete() const { return complete_; }
  Status status() const { return status_; }
  std::size_t transferred() const { return transferred_; }
  std::size_t total_bytes() const { return total_bytes_; }

  sim::Flag& done_flag() { return done_; }

  // --- internal (PML/PTL) ---
  void set_total(std::size_t n) { total_bytes_ = n; }
  void add_progress(std::size_t bytes) {
    transferred_ += bytes;
    if (transferred_ >= total_bytes_) finish(Status::kOk);
  }
  void finish(Status st) {
    if (complete_) return;
    complete_ = true;
    status_ = st;
    // When a progress thread completes the request, the waiting application
    // thread only runs after the condvar handoff (Table 1's threading cost).
    done_.set(wake_delay_);
    if (completions != nullptr) completions->notify();
  }
  void fail(Status st) { finish(st); }
  void set_wake_delay(sim::Time ns) { wake_delay_ = ns; }

  // Abort epoch / revoke count observed when the request was posted
  // (ULFM-style): if either moves past its stamp while the caller is
  // blocked, the wait may abort instead of hanging on a dead or revoked
  // peer. A revoke aborts any unmatched receive; a death declaration only
  // aborts receives naming the dead peer (or wildcard-source receives,
  // which can no longer be satisfied deterministically).
  std::uint64_t epoch_stamp = 0;
  std::uint64_t revoke_stamp = 0;
  // Also notified on completion (the posting PML's, for waits on any of
  // several requests).
  sim::Signal* completions = nullptr;

 private:
  Kind kind_;
  bool complete_ = false;
  Status status_ = Status::kOk;
  std::size_t transferred_ = 0;
  std::size_t total_bytes_ = 0;
  sim::Time wake_delay_ = 0;
  sim::Flag done_;
};

class SendRequest final : public Request, public ListItem<SendRequest> {
 public:
  SendRequest(sim::Engine& engine, dtype::DatatypePtr type, const void* buf,
              std::size_t count)
      : Request(engine, Kind::kSend),
        type(std::move(type)),
        buf(buf),
        count(count),
        convertor(this->type, const_cast<void*>(buf), count) {
    set_total(this->type->size() * count);
  }

  // Addressing, filled by the PML before hand-off to the PTL.
  MatchHeader hdr;
  int dst_gid = -1;

  dtype::DatatypePtr type;
  const void* buf;
  std::size_t count;
  dtype::Convertor convertor;

  // Contiguous staging for RDMA of non-contiguous data (paper §4.2: the
  // memory descriptor must be presentable as an E4 address range).
  std::vector<std::uint8_t> staging;
};

class RecvRequest final : public Request, public ListItem<RecvRequest> {
 public:
  RecvRequest(sim::Engine& engine, dtype::DatatypePtr type, void* buf,
              std::size_t count)
      : Request(engine, Kind::kRecv),
        type(std::move(type)),
        buf(buf),
        count(count),
        capacity(this->type->size() * count),
        convertor(this->type, buf, count) {}

  // Posted match criteria (src_rank/tag may be wildcards).
  int ctx = 0;
  int src_rank = kAnySource;
  int tag = kAnyTag;
  // Global id of the expected sender, when the poster knows it (-1 for
  // wildcard-source). Lets a blocked wait tell "my sender died" from "some
  // unrelated process died".
  int src_gid = -1;

  dtype::DatatypePtr type;
  void* buf;
  std::size_t count;
  std::size_t capacity;
  dtype::Convertor convertor;

  // Filled at match time.
  bool matched = false;
  MatchHeader matched_hdr;

  std::vector<std::uint8_t> staging;
};

}  // namespace oqs::pml
