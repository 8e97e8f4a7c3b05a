#include "mpi/mpi.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "base/log.h"
#include "mpi/coll/coll.h"
#include "net/fault.h"
#include "ptl/elan4/ptl_elan4.h"
#include "ptl/tcp/ptl_tcp.h"

namespace oqs::mpi {

namespace {
constexpr int kCollTagBase = 0x40000000;
constexpr int kSpawnCtxBase = 0x1000;

std::vector<std::uint8_t> serialize_contacts(const pml::ContactInfo& info) {
  std::vector<std::uint8_t> out;
  rte::put_pod(out, static_cast<std::int32_t>(info.size()));
  for (const auto& [name, blob] : info) {
    rte::put_pod(out, static_cast<std::int32_t>(name.size()));
    out.insert(out.end(), name.begin(), name.end());
    rte::put_pod(out, static_cast<std::int32_t>(blob.size()));
    out.insert(out.end(), blob.begin(), blob.end());
  }
  return out;
}

pml::ContactInfo deserialize_contacts(const std::vector<std::uint8_t>& in) {
  pml::ContactInfo info;
  std::size_t off = 0;
  const int n = rte::get_pod<std::int32_t>(in, off);
  for (int i = 0; i < n; ++i) {
    const int name_len = rte::get_pod<std::int32_t>(in, off);
    std::string name(reinterpret_cast<const char*>(in.data() + off),
                     static_cast<std::size_t>(name_len));
    off += static_cast<std::size_t>(name_len);
    const int blob_len = rte::get_pod<std::int32_t>(in, off);
    std::vector<std::uint8_t> blob(in.begin() + static_cast<std::ptrdiff_t>(off),
                                   in.begin() + static_cast<std::ptrdiff_t>(off) +
                                       blob_len);
    off += static_cast<std::size_t>(blob_len);
    info.emplace(std::move(name), std::move(blob));
  }
  return info;
}
}  // namespace

void wait_all(std::vector<Request>& reqs) {
  for (Request& r : reqs)
    if (r.valid()) r.wait();
}

std::size_t wait_any(std::vector<Request>& reqs) {
  auto last = std::find_if(reqs.rbegin(), reqs.rend(),
                           [](const Request& r) { return r.valid(); });
  assert(last != reqs.rend() && "wait_any on all-empty request set");
  pml::Pml& p = last->world_->pml();
  std::size_t hit = 0;
  auto any_done = [&reqs, &hit] {
    for (hit = 0; hit < reqs.size(); ++hit)
      if (reqs[hit].valid() && reqs[hit].req_->complete()) return true;
    return false;
  };
  p.ctx().wait_until(sim::Cadence::kPoll,
                     sim::watched(&p.completions(), any_done), &p.bml());
  return hit;
}

// ------------------------------------------------------------ Request ----

bool Request::test() {
  if (!req_) return true;
  if (!req_->complete()) world_->pml().progress();
  return req_->complete();
}

void Request::wait(RecvStatus* st) {
  assert(req_ && "wait on an empty request");
  world_->pml().wait(*req_);
  fill_status(st);
}

void Request::fill_status(RecvStatus* st) const {
  if (st == nullptr) return;
  st->status = req_->status();
  st->bytes = req_->transferred();
  if (req_->kind() == pml::Request::Kind::kRecv) {
    const auto& rr = static_cast<const pml::RecvRequest&>(*req_);
    if (rr.matched) {
      st->source = rr.matched_hdr.src_rank;
      st->tag = rr.matched_hdr.tag;
    }
  }
}

// ------------------------------------------------------- Communicator ----

// Reserved-tag sequence for collective traffic. The 64-bit sequence is
// projected onto a 28-bit tag window, so after 2^28 collectives on one
// communicator a tag value is reused. That is safe only if no message with
// the same (context, tag) is still in flight: collectives are blocking and
// per-communicator ordered, so a rank can be at most one collective — a
// handful of tag values — ahead of the slowest peer, never 2^28. The
// assertion checks the un-consumed-message direction (an in-flight message
// carrying the tag we are about to reissue); the posted-recv direction
// cannot alias because a blocking collective's recvs complete before it
// returns.
int Communicator::coll_tag() {
  constexpr std::uint64_t kCollTagWindow = 1u << 28;
  const int tag = kCollTagBase + static_cast<int>(coll_seq_ % kCollTagWindow);
  if (coll_seq_ >= kCollTagWindow) {
    assert(!world_->pml().iprobe(ctx_, pml::kAnySource, tag, nullptr) &&
           "collective tag window wrapped onto an in-flight message");
  }
  ++coll_seq_;
  return tag;
}

Status Communicator::send(const void* buf, std::size_t count,
                          const dtype::DatatypePtr& type, int dst, int tag) {
  auto& p = world_->pml();
  p.ctx().compute(p.ctx().params->mpi_call_ns);
  pml::SendRequest req(*p.ctx().engine, type, buf, count);
  p.start_send(req, ctx_, rank_, dst, tag, gids_[static_cast<std::size_t>(dst)]);
  p.wait(req);
  return req.status();
}

Status Communicator::recv(void* buf, std::size_t count,
                          const dtype::DatatypePtr& type, int src, int tag,
                          RecvStatus* st) {
  auto& p = world_->pml();
  p.ctx().compute(p.ctx().params->mpi_call_ns);
  pml::RecvRequest req(*p.ctx().engine, type, buf, count);
  req.ctx = ctx_;
  req.src_rank = src;
  req.tag = tag;
  req.src_gid =
      src == kAnySource ? -1 : gids_[static_cast<std::size_t>(src)];
  p.post_recv(req);
  p.wait(req);
  if (st != nullptr) {
    st->status = req.status();
    st->bytes = req.transferred();
    st->source = req.matched ? req.matched_hdr.src_rank : kAnySource;
    st->tag = req.matched ? req.matched_hdr.tag : kAnyTag;
  }
  return req.status();
}

Request Communicator::isend(const void* buf, std::size_t count,
                            const dtype::DatatypePtr& type, int dst, int tag) {
  auto& p = world_->pml();
  p.ctx().compute(p.ctx().params->mpi_call_ns);
  auto req = std::make_shared<pml::SendRequest>(*p.ctx().engine, type, buf, count);
  p.start_send(*req, ctx_, rank_, dst, tag, gids_[static_cast<std::size_t>(dst)]);
  return Request(world_, std::move(req));
}

Request Communicator::irecv(void* buf, std::size_t count,
                            const dtype::DatatypePtr& type, int src, int tag) {
  auto& p = world_->pml();
  p.ctx().compute(p.ctx().params->mpi_call_ns);
  auto req = std::make_shared<pml::RecvRequest>(*p.ctx().engine, type, buf, count);
  req->ctx = ctx_;
  req->src_rank = src;
  req->tag = tag;
  req->src_gid =
      src == kAnySource ? -1 : gids_[static_cast<std::size_t>(src)];
  p.post_recv(*req);
  return Request(world_, std::move(req));
}

Status Communicator::sendrecv(const void* send_buf, std::size_t send_count,
                              int dst, int send_tag, void* recv_buf,
                              std::size_t recv_count, int src, int recv_tag,
                              const dtype::DatatypePtr& type, RecvStatus* st) {
  Request r = irecv(recv_buf, recv_count, type, src, recv_tag);
  Request s = isend(send_buf, send_count, type, dst, send_tag);
  r.wait(st);
  s.wait();
  // Prefer the receive's verdict: after a failure it names the reason the
  // exchange cannot complete (dead sender / revoked wildcard).
  if (!ok(r.req_->status())) return r.req_->status();
  return s.req_->status();
}

namespace {
void probed(const pml::MatchHeader& hdr, RecvStatus* st) {
  if (st == nullptr) return;
  st->source = hdr.src_rank;
  st->tag = hdr.tag;
  st->bytes = hdr.len;
  st->status = Status::kOk;
}
}  // namespace

bool Communicator::iprobe(int src, int tag, RecvStatus* st) {
  auto& p = world_->pml();
  p.progress();
  pml::MatchHeader hdr;
  if (!p.iprobe(ctx_, src, tag, &hdr)) return false;
  probed(hdr, st);
  return true;
}

void Communicator::probe(int src, int tag, RecvStatus* st) {
  // Each round matches the unexpected queue uncharged, then sweeps the
  // rails once; the match that hits is charged once.
  auto& p = world_->pml();
  pml::MatchHeader hdr;
  p.ctx().wait_until(
      sim::Cadence::kPoll, sim::watched(&p.unexpected_grew(), [&] {
        return p.find_unexpected(ctx_, src, tag, &hdr);
      }),
      &p.bml());
  p.ctx().compute(p.ctx().params->pml_match_ns);
  probed(hdr, st);
}

// The routed collectives delegate to the framework (src/mpi/coll), which
// selects among the reference point-to-point algorithms, the NIC-offloaded
// combining tree and the hierarchical composition. The inline collectives
// below (allgather etc.) stay point-to-point: the framework's collective
// state builds use them, so routing them too would recurse.

Status Communicator::barrier() {
  if (size() <= 1) return Status::kOk;
  return world_->coll().barrier(*this);
}

Status Communicator::bcast(void* buf, std::size_t count,
                           const dtype::DatatypePtr& type, int root) {
  if (size() <= 1) return Status::kOk;
  return world_->coll().bcast(*this, buf, count, type, root);
}

Status Communicator::reduce_sum(const double* send_buf, double* recv_buf,
                                std::size_t count, int root) {
  if (size() <= 1) {
    // memcpy with identical pointers is UB, and MPI_IN_PLACE-style callers
    // do pass send == recv — the original linear algorithm's root bug.
    if (recv_buf != send_buf)
      std::memcpy(recv_buf, send_buf, count * sizeof(double));
    return Status::kOk;
  }
  return world_->coll().reduce_sum(*this, send_buf, recv_buf, count, root);
}

Status Communicator::allreduce_sum(const double* send_buf, double* recv_buf,
                                   std::size_t count) {
  if (size() <= 1) {
    if (recv_buf != send_buf)
      std::memcpy(recv_buf, send_buf, count * sizeof(double));
    return Status::kOk;
  }
  return world_->coll().allreduce_sum(*this, send_buf, recv_buf, count);
}

Status Communicator::allgather(const void* send_buf, std::size_t bytes_each,
                               void* recv_buf) {
  const int n = size();
  const int tag = coll_tag();
  auto* out = static_cast<char*>(recv_buf);
  if (n <= 1) {
    std::memcpy(out, send_buf, bytes_each);
    return Status::kOk;
  }
  // Bruck's allgather: ceil(log2 n) steps for any n, the ring's bytes.
  // tmp holds blocks in rank-relative order: block i is rank (rank + i)'s.
  // Step k (1, 2, 4, ...) sends the first min(k, n - k) blocks to rank - k
  // and receives as many from rank + k into blocks k onward. Every step
  // talks to a different pair of partners (rank - k and rank + k never
  // repeat for k < n), so one tag serves all steps without cross-matching.
  const std::size_t total = static_cast<std::size_t>(n) * bytes_each;
  std::vector<char> tmp(total);
  std::memcpy(tmp.data(), send_buf, bytes_each);
  for (int k = 1; k < n; k *= 2) {
    const std::size_t len =
        static_cast<std::size_t>(std::min(k, n - k)) * bytes_each;
    const Status st = sendrecv(
        tmp.data(), len, (rank_ - k + n) % n, tag,
        tmp.data() + static_cast<std::size_t>(k) * bytes_each, len,
        (rank_ + k) % n, tag, dtype::byte_type());
    if (!ok(st)) return st;
  }
  // Rotate into rank order: a host copy of the n - 1 gathered blocks, which
  // the ring (receiving in place) never made, so it is charged.
  const std::size_t head = static_cast<std::size_t>(n - rank_) * bytes_each;
  std::memcpy(out + (total - head), tmp.data(), head);
  std::memcpy(out, tmp.data() + head, total - head);
  world_->coll().charge_copy(total - bytes_each);
  return Status::kOk;
}

Status Communicator::scatter(const void* send_buf, std::size_t bytes_each,
                             void* recv_buf, int root) {
  const int n = size();
  const int tag = coll_tag();
  if (rank_ == root) {
    const auto* in = static_cast<const char*>(send_buf);
    std::memcpy(recv_buf, in + static_cast<std::size_t>(root) * bytes_each,
                bytes_each);
    for (int r = 0; r < n; ++r) {
      if (r == root) continue;
      const Status st =
          send(in + static_cast<std::size_t>(r) * bytes_each, bytes_each,
               dtype::byte_type(), r, tag);
      if (!ok(st)) return st;
    }
    return Status::kOk;
  }
  return recv(recv_buf, bytes_each, dtype::byte_type(), root, tag);
}

Status Communicator::gather(const void* send_buf, std::size_t bytes_each,
                            void* recv_buf, int root) {
  const int n = size();
  const int tag = coll_tag();
  if (rank_ == root) {
    auto* out = static_cast<char*>(recv_buf);
    std::memcpy(out + static_cast<std::size_t>(rank_) * bytes_each, send_buf,
                bytes_each);
    for (int r = 0; r < n; ++r) {
      if (r == root) continue;
      const Status st =
          recv(out + static_cast<std::size_t>(r) * bytes_each, bytes_each,
               dtype::byte_type(), r, tag);
      if (!ok(st)) return st;
    }
    return Status::kOk;
  }
  return send(send_buf, bytes_each, dtype::byte_type(), root, tag);
}

Status Communicator::alltoall(const void* send_buf, std::size_t bytes_each,
                              void* recv_buf) {
  const int n = size();
  const int tag = coll_tag();
  const auto* in = static_cast<const char*>(send_buf);
  auto* out = static_cast<char*>(recv_buf);
  std::memcpy(out + static_cast<std::size_t>(rank_) * bytes_each,
              in + static_cast<std::size_t>(rank_) * bytes_each, bytes_each);
  // Pairwise exchange: in step s, talk to rank ^ s (power-of-two sizes) or
  // the (rank + s) / (rank - s) shift pair otherwise.
  const bool pow2 = (n & (n - 1)) == 0;
  for (int s = 1; s < n; ++s) {
    const int peer = pow2 ? (rank_ ^ s) : (rank_ + s) % n;
    const int from = pow2 ? peer : (rank_ - s + n) % n;
    const Status st = sendrecv(
        in + static_cast<std::size_t>(peer) * bytes_each, bytes_each, peer, tag,
        out + static_cast<std::size_t>(from) * bytes_each, bytes_each, from,
        tag, dtype::byte_type());
    if (!ok(st)) return st;
  }
  return Status::kOk;
}

Communicator Communicator::dup() {
  const int new_ctx = world_->next_ctx_++;
  return Communicator(world_, new_ctx, rank_, gids_);
}

Communicator Communicator::split(int color, int key) {
  const int n = size();
  // Exchange (color, key) so every rank computes the same partition.
  struct Entry {
    std::int32_t color;
    std::int32_t key;
  };
  Entry mine{color, key};
  std::vector<Entry> all(static_cast<std::size_t>(n));
  allgather(&mine, sizeof(Entry), all.data());

  // Enumerate distinct colors in sorted order for deterministic context ids.
  std::vector<int> colors;
  for (const Entry& e : all) colors.push_back(e.color);
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
  const auto cit = std::find(colors.begin(), colors.end(), color);
  const int color_index = static_cast<int>(cit - colors.begin());

  // Members of my color, ordered by (key, old rank).
  std::vector<std::pair<std::pair<int, int>, int>> members;  // ((key,rank),rank)
  for (int r = 0; r < n; ++r) {
    if (all[static_cast<std::size_t>(r)].color != color) continue;
    members.push_back({{all[static_cast<std::size_t>(r)].key, r}, r});
  }
  std::sort(members.begin(), members.end());

  std::vector<int> new_gids;
  int new_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const int old_rank = members[i].second;
    new_gids.push_back(gids_[static_cast<std::size_t>(old_rank)]);
    if (old_rank == rank_) new_rank = static_cast<int>(i);
  }
  assert(new_rank >= 0);

  // Every rank advances the context counter identically; each color takes
  // its slot within the allocated block.
  const int base_ctx = world_->next_ctx_;
  world_->next_ctx_ += static_cast<int>(colors.size());
  return Communicator(world_, base_ctx + color_index, new_rank,
                      std::move(new_gids));
}

Communicator Communicator::shrink() {
  // Locally computable and uniform: the dead-set is global (published by
  // the one failure detector), so every survivor derives the same member
  // list and the same fresh context id without any exchange — crucial,
  // since the old communicator may no longer complete a collective.
  std::vector<int> survivors;
  int new_rank = -1;
  for (std::size_t i = 0; i < gids_.size(); ++i) {
    if (world_->proc_dead(gids_[i])) continue;
    if (static_cast<int>(i) == rank_) new_rank = static_cast<int>(survivors.size());
    survivors.push_back(gids_[i]);
  }
  assert(new_rank >= 0 && "shrink() called by a dead member");
  const int new_ctx = world_->next_ctx_++;
  return Communicator(world_, new_ctx, new_rank, std::move(survivors));
}

// --------------------------------------------------------------- World ----

World::World(rte::Env& env, elan4::QsNet& net, Options opts)
    : env_(env), net_(net), opts_(std::move(opts)) {
  gid_ = env_.world_index;
  known_procs_ = env_.world_size;
  open_stack();
  watch_failures();
  env_.rte->registry().barrier(env_.job + "/init", env_.world_size);
  std::vector<int> gids(static_cast<std::size_t>(env_.world_size));
  for (int i = 0; i < env_.world_size; ++i) gids[static_cast<std::size_t>(i)] = i;
  modex(gids);
  comm_.reset(new Communicator(this, /*ctx=*/0, gid_, std::move(gids)));
}

World::World(rte::Env& env, elan4::QsNet& net, Options opts, const SpawnedTag& tag)
    : env_(env), net_(net), opts_(std::move(opts)) {
  gid_ = tag.gid;
  const int gid_base = tag.gid - tag.child_index;
  known_procs_ = gid_base + tag.nchildren;
  open_stack();
  watch_failures();
  // The child's world is the merged communicator: parents first, then kids.
  std::vector<int> gids = tag.parent_gids;
  for (int j = 0; j < tag.nchildren; ++j) gids.push_back(gid_base + j);
  modex(gids);
  env_.rte->registry().barrier(tag.key + "/b", tag.nparents + tag.nchildren);
  comm_.reset(new Communicator(this, tag.ctx, tag.nparents + tag.child_index,
                               std::move(gids)));
}

World::~World() {
  if (!finalized_) finalize();
}

std::string World::proc_key(int gid) const {
  return env_.job + "/proc/" + std::to_string(gid);
}

void World::open_stack() {
  pml_ = std::make_unique<pml::Pml>(net_.host(env_.node, gid_));

  pml::ContactInfo info;
  if (opts_.use_elan4) {
    // One module per rail; the BML stripes across them. Each rail claims
    // its own Elan context and publishes contact info under its own name.
    int rails = std::max(opts_.elan4.rails, 1);
    if (rails > net_.num_rails()) {
      log::warn("mpi", "requested ", rails, " rails, fabric has ",
                net_.num_rails());
      rails = net_.num_rails();
    }
    assert((rails == 1 ||
            opts_.elan4.progress == ptl_elan4::Progress::kPolling) &&
           "multirail requires polling progress (a process cannot block "
           "inside one rail while others carry traffic)");
    for (int r = 0; r < rails; ++r) {
      std::string nm = r == 0 ? "elan4" : "elan4." + std::to_string(r);
      auto ptl = std::make_unique<ptl_elan4::PtlElan4>(
          *pml_, net_, env_.node, opts_.elan4, r, std::move(nm));
      info.emplace(ptl->name(), ptl->contact());
      pml_->add_ptl(std::move(ptl));
    }
  }
  if (opts_.use_tcp) {
    auto ptl = std::make_unique<ptl_tcp::PtlTcp>(*pml_, net_, env_.node);
    info.emplace(ptl->name(), ptl->contact());
    pml_->add_ptl(std::move(ptl));
  }
  assert(pml_->num_ptls() > 0 && "at least one PTL must be enabled");
  env_.rte->registry().put(proc_key(gid_), serialize_contacts(info));
  // The one wire-up path: the PML resolves a peer on first contact (a send
  // to it, a frame from it) and again after it departed. A peer this
  // process's modex fetched, and that has not republished since, is read
  // from that fetch; any other (a migrant, a gid outside the modex) costs a
  // registry lookup.
  pml_->peer_resolver = [this](int gid) {
    rte::Registry& reg = env_.rte->registry();
    const std::string key = proc_key(gid);
    for (const Fetched& f : fetched_)
      if (gid >= f.lo && gid < f.hi && !reg.republished_after(key, f.at))
        return deserialize_contacts(reg.peek(key));
    return deserialize_contacts(reg.get(key));
  };
  // Fault plumbing. The PML gates sends on the published dead-set, stamps
  // requests with the abort epoch, and breaks blocked waits when it moves;
  // every PTL's retransmission watchdog corroborates the heartbeat
  // detector. The FailureService outlives every World (it lives in the
  // Runtime), so capturing it by reference is safe.
  rte::FailureService& fs = env_.rte->failure();
  pml_->peer_dead = [&fs](int gid) { return fs.dead(gid); };
  pml_->abort_epoch = [&fs] { return fs.abort_epoch(); };
  pml_->revoke_count = [&fs] { return fs.revokes(); };
  pml_->abort_signal = &fs.epoch_signal();
  for (std::size_t i = 0; i < pml_->num_ptls(); ++i)
    pml_->ptl(i).set_suspect_reporter(
        [this](int target) { env_.rte->failure().report_suspect(gid_, target); });
  coll_ = std::make_unique<coll::Colls>(*this);
}

void World::watch_failures() {
  failure().register_process(gid_);
  // The subscriber runs in plain event context (no fiber): hand the purge
  // to a fiber of our own, guarded by the liveness token so notifications
  // arriving after our teardown no-op. gid == -1 is a revoke notification:
  // no new corpse, but blocked waits must wake to observe the moved epoch.
  failure_sub_ = failure().subscribe(
      [this, alive = alive_](const rte::FailureEvent& e) {
        if (!*alive || e.gid == gid_) return;
        net_.engine().spawn(
            "peer-failed/" + std::to_string(gid_),
            [this, alive, dead_gid = e.gid] {
              if (!*alive) return;
              if (dead_gid >= 0) pml_->peer_failed(dead_gid);
              pml_->wake_waits();
            });
      });
}

void World::migrate(int new_node) {
  assert(!finalized_);
  // Connection sequence state is part of the checkpoint: peers keep their
  // counters, so the rebuilt stack must resume counting where it stopped.
  const pml::Pml::SequenceState seqs = pml_->export_sequences();
  // Collective state is placement-bound (NIC trees hold peer addresses and
  // event indices; the shared segment lives on the old node), so it is
  // released before the device context goes away and rebuilt lazily after.
  // The kAuto gates guarantee no such state exists for communicators small
  // enough to migrate under (see Colls::hier_gate / nic_gate); forcing a
  // coll algorithm and then migrating mid-job is unsupported.
  coll_.reset();
  pml_->finalize();  // quiesce + goodbyes + release the old context
  pml_.reset();
  env_.node = new_node;
  // The rebuilt stack starts unwired, its modex results gone with the old
  // one: every peer it contacts from here costs a registry lookup.
  fetched_.clear();
  open_stack();  // fresh context on the new node; contact republished
  pml_->import_sequences(seqs);
}

void World::modex(const std::vector<int>& gids) {
  rte::Registry& reg = env_.rte->registry();
  for (int g : gids) reg.get(proc_key(g));
  const sim::Time at = net_.engine().now();
  bool self = false;
  for (int g : gids) {
    self |= g == gid_;
    if (!fetched_.empty() && fetched_.back().at == at && fetched_.back().hi == g)
      ++fetched_.back().hi;
    else
      fetched_.push_back({g, g + 1, at});
  }
  // Self is wired now: MPI allows self-sends, which ride the NIC loopback,
  // and a wired rail is what lets a sole interrupt-mode rail block.
  if (self) {
    [[maybe_unused]] const bool wired = pml_->resolve_peer(gid_);
    assert(wired && "this process published no usable contact info");
  }
}

Communicator World::spawn_merge(int n, std::function<void(World&)> child_main,
                                const std::vector<int>& nodes) {
  assert(n > 0);
  assert(nodes.empty() || static_cast<int>(nodes.size()) == n);
  const std::string key =
      env_.job + "/spawn/" + std::to_string(spawn_seq_++);
  const int nparents = comm_->size();
  const int base = known_procs_;
  const int ctx = kSpawnCtxBase + base;

  if (comm_->rank() == 0) {
    auto main_fn = std::make_shared<std::function<void(World&)>>(std::move(child_main));
    for (int i = 0; i < n; ++i) {
      SpawnedTag tag;
      tag.gid = base + i;
      tag.nparents = nparents;
      tag.nchildren = n;
      tag.child_index = i;
      tag.ctx = ctx;
      tag.parent_gids = comm_->gids_;
      tag.key = key;
      const int node = nodes.empty() ? (base + i) % net_.num_nodes()
                                     : nodes[static_cast<std::size_t>(i)];
      Options child_opts = opts_;
      elan4::QsNet* net = &net_;
      env_.rte->spawn_one(node, [net, child_opts, tag, main_fn](rte::Env& cenv) {
        World child(cenv, *net, child_opts, tag);
        (*main_fn)(child);
      });
    }
  }

  std::vector<int> children(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) children[static_cast<std::size_t>(j)] = base + j;
  modex(children);
  env_.rte->registry().barrier(key + "/b", nparents + n);
  known_procs_ = base + n;

  std::vector<int> gids = comm_->gids_;
  gids.insert(gids.end(), children.begin(), children.end());
  return Communicator(this, ctx, comm_->rank(), std::move(gids));
}

ptl_elan4::PtlElan4* World::elan4_ptl() { return elan4_rail_ptl(0); }

ptl_elan4::PtlElan4* World::elan4_rail_ptl(int rail) {
  const std::string want =
      rail == 0 ? "elan4" : "elan4." + std::to_string(rail);
  for (std::size_t i = 0; i < pml_->num_ptls(); ++i)
    if (pml_->ptl(i).name() == want)
      return static_cast<ptl_elan4::PtlElan4*>(&pml_->ptl(i));
  return nullptr;
}

rte::FailureService& World::failure() { return env_.rte->failure(); }

bool World::any_failure() const { return env_.rte->failure().any_dead(); }

bool World::proc_dead(int gid) const { return env_.rte->failure().dead(gid); }

void World::revoke() {
  // One management-net broadcast; the sim applies it instantly, the cost
  // is ours.
  pml_->ctx().compute(pml_->ctx().params->mpi_call_ns);
  failure().revoke();
}

void World::crash() {
  if (finalized_) return;
  finalized_ = true;
  crashed_ = true;
  *alive_ = false;
  log::warn("mpi", "gid ", gid_, ": crashing in place");
  // Heartbeats stop now: the detector's silence window starts here.
  failure().crash(gid_);
  if (failure_sub_ != 0) {
    failure().unsubscribe(failure_sub_);
    failure_sub_ = 0;
  }
  // The Elan contexts stay open — peers' frames keep landing unread,
  // bounded by their send windows — but the capability slot is marked
  // failed (routing stays resolvable, and the NIC model drops traffic
  // addressed to it).
  for (int r = 0;; ++r) {
    ptl_elan4::PtlElan4* ptl = elan4_rail_ptl(r);
    if (ptl == nullptr) break;
    net_.capability().mark_failed(ptl->device().vpid());
  }
  // A dead host cannot clean up device state: abandon the collective trees
  // (peers keep their events; shm segments outlive the process) and drop
  // the PML queues without goodbyes.
  if (coll_) {
    coll_->abandon();
    coll_.reset();
  }
  pml_->halt();
  env_.rte->oob().remove_endpoint(env_.oob_id);
}

void World::finalize() {
  if (finalized_) return;
  finalized_ = true;
  *alive_ = false;
  if (failure_sub_ != 0) {
    failure().unsubscribe(failure_sub_);
    failure_sub_ = 0;
  }
  failure().deregister(gid_);
  // Applications synchronize (e.g. a barrier) before finalize; here we only
  // quiesce our own traffic and leave (paper §4.1's synchronous completion
  // of pending messages before a connection finalizes). Collective device
  // state (NIC tree events/mappings) must go first, while the context is
  // still open.
  coll_.reset();
  pml_->finalize();
  env_.rte->oob().remove_endpoint(env_.oob_id);
}

}  // namespace oqs::mpi
