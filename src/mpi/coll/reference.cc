// Reference point-to-point collective algorithms.
//
// All of them run over a Group — an ordered subset of the communicator —
// with one caller-supplied tag per collective: the algorithms are
// structured so no member ever has two concurrent transfers with the same
// peer in the same direction, which (with the PML's per-(peer, context,
// tag) ordering) makes a single tag per operation unambiguous.
//
// Error handling is ULFM-local: the first failed point-to-point step
// (kErrProcFailed from a dead peer, kRevoked from an epoch abort) stops
// the algorithm on this rank and propagates up; other ranks break out of
// their own blocked steps through the abort epoch once the failure is
// declared (and the application revokes).
#include <cstring>
#include <vector>

#include "mpi/coll/coll.h"
#include "mpi/mpi.h"

namespace oqs::mpi::coll {

namespace {
const dtype::DatatypePtr& dbl() {
  static const dtype::DatatypePtr t = dtype::double_type();
  return t;
}
}  // namespace

// Dissemination barrier (Hensgen/Finkel/Manber): ceil(log2 n) rounds; in
// round k each member signals (idx + 2^k) mod n and waits on
// (idx - 2^k) mod n. Works for any n.
Status Colls::ref_barrier(Communicator& c, int tag, const Group& g) {
  const int n = g.n;
  if (n <= 1 || g.idx < 0) return Status::kOk;
  std::uint8_t token = 0;
  for (int step = 1; step < n; step <<= 1) {
    const int to = g.to_comm((g.idx + step) % n);
    const int from = g.to_comm((g.idx - step + n) % n);
    OQS_COLL_TRY(c.sendrecv(&token, 1, to, tag, &token, 1, from, tag,
                            dtype::byte_type()));
  }
  return Status::kOk;
}

// Binomial-tree broadcast rooted at group position root_idx.
Status Colls::ref_bcast(Communicator& c, int tag, const Group& g, int root_idx,
                        void* buf, std::size_t count,
                        const dtype::DatatypePtr& type) {
  const int n = g.n;
  if (n <= 1 || g.idx < 0) return Status::kOk;
  const int rel = (g.idx - root_idx + n) % n;
  int mask = 1;
  while (mask < n) {
    if (rel & mask) {
      const int src = g.to_comm((rel - mask + root_idx) % n);
      OQS_COLL_TRY(c.recv(buf, count, type, src, tag));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < n) {
      const int dst = g.to_comm((rel + mask + root_idx) % n);
      OQS_COLL_TRY(c.send(buf, count, type, dst, tag));
    }
    mask >>= 1;
  }
  return Status::kOk;
}

// Binomial-tree reduction to group position root_idx: log2(n) rounds
// instead of the legacy linear root loop. Accumulation happens in a local
// scratch vector, so send == recv aliasing is inherently safe.
Status Colls::ref_reduce(Communicator& c, int tag, const Group& g,
                         int root_idx, const double* send, double* recv,
                         std::size_t count) {
  const int n = g.n;
  if (g.idx < 0) return Status::kOk;
  std::vector<double> acc(send, send + count);
  if (n > 1) {
    std::vector<double> tmp(count);
    const int rel = (g.idx - root_idx + n) % n;
    for (int mask = 1; mask < n; mask <<= 1) {
      if (rel & mask) {
        const int dst = g.to_comm((rel - mask + root_idx) % n);
        OQS_COLL_TRY(c.send(acc.data(), count, dbl(), dst, tag));
        break;
      }
      if (rel + mask < n) {
        const int src = g.to_comm((rel + mask + root_idx) % n);
        OQS_COLL_TRY(c.recv(tmp.data(), count, dbl(), src, tag));
        for (std::size_t i = 0; i < count; ++i) acc[i] += tmp[i];
      }
    }
  }
  if (g.idx == root_idx && recv != nullptr)
    std::memcpy(recv, acc.data(), count * sizeof(double));
  return Status::kOk;
}

// The legacy algorithm (every rank sends to root, root sums in arrival
// order) — kept selectable as ReduceAlg::kLinear for apples-to-apples
// benchmarking, with the aliasing bug of the original fixed: the root only
// seeds recv from send when they are distinct buffers (memcpy with equal
// pointers is UB).
Status Colls::linear_reduce(Communicator& c, int tag, const double* send,
                            double* recv, std::size_t count, int root) {
  if (c.rank() == root) {
    if (recv != send) std::memcpy(recv, send, count * sizeof(double));
    std::vector<double> tmp(count);
    for (int r = 0; r < c.size(); ++r) {
      if (r == root) continue;
      OQS_COLL_TRY(c.recv(tmp.data(), count, dbl(), r, tag));
      for (std::size_t i = 0; i < count; ++i) recv[i] += tmp[i];
    }
    return Status::kOk;
  }
  return c.send(send, count, dbl(), root, tag);
}

// Recursive-doubling allreduce (latency-optimal: ceil(log2 n) exchange
// rounds of the full payload). Non-power-of-2 sizes use the MPICH folding:
// the first 2*rem members pair up (even sends its contribution to odd and
// sits out the exchange; odd folds it in), the power-of-2 remainder runs
// the doubling, and the evens get the result back at the end.
Status Colls::ref_allreduce_recdbl(Communicator& c, int tag, const Group& g,
                                   double* buf, std::size_t count) {
  const int n = g.n;
  if (n <= 1 || g.idx < 0) return Status::kOk;
  int pof2 = 1;
  while (pof2 * 2 <= n) pof2 *= 2;
  const int rem = n - pof2;
  std::vector<double> tmp(count);
  int newidx = -1;
  if (g.idx < 2 * rem) {
    if (g.idx % 2 == 0) {
      OQS_COLL_TRY(c.send(buf, count, dbl(), g.to_comm(g.idx + 1), tag));
    } else {
      OQS_COLL_TRY(c.recv(tmp.data(), count, dbl(), g.to_comm(g.idx - 1), tag));
      for (std::size_t i = 0; i < count; ++i) buf[i] += tmp[i];
      newidx = g.idx / 2;
    }
  } else {
    newidx = g.idx - rem;
  }
  if (newidx >= 0) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int peer_new = newidx ^ mask;
      const int peer =
          g.to_comm(peer_new < rem ? peer_new * 2 + 1 : peer_new + rem);
      OQS_COLL_TRY(c.sendrecv(buf, count, peer, tag, tmp.data(), count, peer,
                              tag, dbl()));
      for (std::size_t i = 0; i < count; ++i) buf[i] += tmp[i];
    }
  }
  if (g.idx < 2 * rem) {
    if (g.idx % 2 == 1)
      OQS_COLL_TRY(c.send(buf, count, dbl(), g.to_comm(g.idx - 1), tag));
    else
      OQS_COLL_TRY(c.recv(buf, count, dbl(), g.to_comm(g.idx + 1), tag));
  }
  return Status::kOk;
}

// Ring reduce-scatter + ring allgather (Rabenseifner-style,
// bandwidth-optimal: each member moves ~2*count elements total regardless
// of n). Any group size; elements are block-partitioned with the first
// count % n blocks one element larger.
Status Colls::ref_allreduce_rsag(Communicator& c, int tag, const Group& g,
                                 double* buf, std::size_t count) {
  const int n = g.n;
  if (n <= 1 || g.idx < 0) return Status::kOk;
  std::vector<std::size_t> cnt(static_cast<std::size_t>(n)),
      off(static_cast<std::size_t>(n));
  const std::size_t q = count / static_cast<std::size_t>(n);
  const std::size_t rmd = count % static_cast<std::size_t>(n);
  std::size_t at = 0;
  for (int i = 0; i < n; ++i) {
    cnt[i] = q + (static_cast<std::size_t>(i) < rmd ? 1 : 0);
    off[i] = at;
    at += cnt[i];
  }
  const int right = g.to_comm((g.idx + 1) % n);
  const int left = g.to_comm((g.idx - 1 + n) % n);
  std::vector<double> tmp(q + 1);
  // Reduce-scatter: after n-1 shifts, member i holds the fully reduced
  // block (i+1) mod n.
  for (int s = 0; s < n - 1; ++s) {
    const int sc = (g.idx - s + n) % n;
    const int rc = (g.idx - s - 1 + n) % n;
    OQS_COLL_TRY(c.sendrecv(buf + off[sc], cnt[sc], right, tag, tmp.data(),
                            cnt[rc], left, tag, dbl()));
    for (std::size_t i = 0; i < cnt[rc]; ++i) buf[off[rc] + i] += tmp[i];
  }
  // Allgather: circulate the reduced blocks the other n-1 shifts.
  int have = (g.idx + 1) % n;
  for (int s = 0; s < n - 1; ++s) {
    const int nxt = (have - 1 + n) % n;
    OQS_COLL_TRY(c.sendrecv(buf + off[have], cnt[have], right, tag,
                            buf + off[nxt], cnt[nxt], left, tag, dbl()));
    have = nxt;
  }
  return Status::kOk;
}

// Size-based pick between the two host allreduce algorithms (used directly
// and as the fallback under a forced-but-unusable kNic).
Status Colls::ref_allreduce(Communicator& c, int tag, const Group& g,
                            double* buf, std::size_t count) {
  const ModelParams& p = *world_.pml().ctx().params;
  if (count * sizeof(double) >= p.coll_rsag_min_bytes && g.n >= 4)
    return ref_allreduce_rsag(c, tag, g, buf, count);
  return ref_allreduce_recdbl(c, tag, g, buf, count);
}

}  // namespace oqs::mpi::coll
