// Collectives under process failure, across all four algorithm families
// (p2p reference, NIC combining tree, hierarchical, hierarchical+NIC): a
// rank dies mid-allreduce cadence, the survivors must come back with an
// error instead of hanging, and after revoke + shrink every family must
// reproduce the closed-form serial reduction on the survivor communicator
// bit-for-bit — i.e. exactly what the p2p reference oracle computes.
#include "mpi/mpi.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "testbed.h"

namespace oqs {
namespace {

using test::TestBed;

// Same mode mapping CI's OQS_TEST_COLL hook uses, applied explicitly so
// the family under test cannot be overridden by the environment.
mpi::coll::CollOptions mode_opts(const std::string& mode) {
  using namespace mpi::coll;
  CollOptions c;
  if (mode == "p2p") {
    c.barrier = BarrierAlg::kDissemination;
    c.bcast = BcastAlg::kBinomial;
    c.reduce = ReduceAlg::kBinomial;
    c.allreduce = AllreduceAlg::kRecursiveDoubling;
    c.hier = false;
    c.nic = false;
  } else if (mode == "nic") {
    c.barrier = BarrierAlg::kNic;
    c.allreduce = AllreduceAlg::kNic;
    c.hier = false;
  } else if (mode == "hier") {
    c.barrier = BarrierAlg::kHier;
    c.bcast = BcastAlg::kHier;
    c.reduce = ReduceAlg::kHier;
    c.allreduce = AllreduceAlg::kHier;
    c.nic = false;
  } else {  // hiernic
    c.barrier = BarrierAlg::kHier;
    c.bcast = BcastAlg::kHier;
    c.reduce = ReduceAlg::kHier;
    c.allreduce = AllreduceAlg::kHier;
  }
  return c;
}

// Rank r contributes a + r*b per element; the serial reduction has the
// closed form n*a + b*n*(n-1)/2. Small integers, so double sums are exact
// in any association order — every algorithm family must hit the oracle
// bit-for-bit.
double contrib(int rank, int iter, std::size_t i) {
  const double a = static_cast<double>((iter * 131 + static_cast<int>(i)) % 1023);
  const double b = static_cast<double>((iter + static_cast<int>(i)) % 63);
  return a + static_cast<double>(rank) * b;
}
double expected(int n, int iter, std::size_t i) {
  const double a = static_cast<double>((iter * 131 + static_cast<int>(i)) % 1023);
  const double b = static_cast<double>((iter + static_cast<int>(i)) % 63);
  const double nn = n;
  return nn * a + b * nn * (nn - 1.0) / 2.0;
}

class CollFault : public ::testing::TestWithParam<const char*> {};

TEST_P(CollFault, RankKilledMidAllreduceSurvivorsShrinkAndMatchOracle) {
  const std::string mode = GetParam();
  // 8 ranks over 4 nodes: two per node, so the hierarchical families run a
  // real shm level (and lose an on-node peer when the victim dies).
  TestBed bed(4);
  bed.pin_transport = false;  // rails may vary; the coll mode is pinned below
  bed.allow_drops = true;     // frames to the victim are dropped at its NIC
  mpi::Options opts;
  opts.coll = mode_opts(mode);

  constexpr int kNp = 8;
  constexpr int kVictim = 5;
  constexpr int kKillIter = 2;
  constexpr int kIters = 4;
  constexpr std::size_t kElems = 256;
  int faulted = 0;
  int clean_reruns = 0;

  bed.run_mpi(kNp, [&](mpi::World& w) {
    auto& comm = w.comm();
    const int me = comm.rank();
    const int victim_gid = comm.gid_of(kVictim);
    std::vector<double> in(kElems), out(kElems);
    Status st = Status::kOk;
    for (int it = 0; it < kIters; ++it) {
      if (me == kVictim && it == kKillIter) {
        w.crash();
        return;
      }
      for (std::size_t i = 0; i < kElems; ++i) in[i] = contrib(me, it, i);
      out.assign(kElems, 0.0);
      st = comm.allreduce_sum(in.data(), out.data(), kElems);
      if (!ok(st)) break;
      for (std::size_t i = 0; i < kElems; ++i)
        ASSERT_EQ(out[i], expected(kNp, it, i))
            << mode << " iter " << it << " elem " << i << " rank " << me;
    }
    if (!ok(st)) {
      ++faulted;
      w.revoke();
    }
    // Wait out the detector, then sync the survivors over the registry (an
    // MPI barrier would wedge on the corpse). All revokes precede the
    // barrier, so the shrunken communicator's requests cannot be aborted.
    while (!w.proc_dead(victim_gid))
      w.net().engine().sleep(w.net().params().heartbeat_interval_ns);
    w.env().rte->registry().barrier("collfault/" + mode, kNp - 1);
    mpi::Communicator shrunk = comm.shrink();
    ASSERT_EQ(shrunk.size(), kNp - 1);
    for (int it = 0; it < kIters; ++it) {
      for (std::size_t i = 0; i < kElems; ++i)
        in[i] = contrib(shrunk.rank(), it, i);
      out.assign(kElems, 0.0);
      ASSERT_EQ(shrunk.allreduce_sum(in.data(), out.data(), kElems),
                Status::kOk)
          << mode << " rerun iter " << it;
      for (std::size_t i = 0; i < kElems; ++i)
        ASSERT_EQ(out[i], expected(kNp - 1, it, i))
            << mode << " rerun iter " << it << " elem " << i;
    }
    ++clean_reruns;
  }, opts);

  // Every survivor finished the shrunken-world rerun against the oracle,
  // and at least one actually observed the failure as an error.
  EXPECT_EQ(clean_reruns, kNp - 1) << mode;
  EXPECT_GE(faulted, 1) << mode;
}

TEST(CollFaultBuild, FailedPlacementExchangeBuildsNoMap) {
  // A rank that dies before the first collective, and is not yet declared
  // dead, fails the survivors' placement allgather inside the hierarchical
  // build. The build hands that Status to the collective and keeps no map
  // made from the partial exchange; a survivor that sees it revokes, which
  // breaks the others out of the exchange too.
  TestBed bed(4);
  bed.allow_drops = true;  // frames to the corpse are dropped at its NIC
  mpi::Options opts;
  opts.coll = mode_opts("hier");
  obs::Counter& maps = obs::metrics().counter("coll.hier.maps_built");
  const std::uint64_t maps_before = maps.value();
  constexpr int kNp = 8;
  constexpr int kVictim = 5;
  std::vector<Status> got;
  bed.run_mpi(kNp, [&](mpi::World& w) {
    auto& comm = w.comm();
    if (comm.rank() == kVictim) {
      w.crash();
      return;
    }
    double in = 1.0;
    double out = 0.0;
    const Status st = comm.allreduce_sum(&in, &out, 1);
    if (!ok(st)) w.revoke();
    got.push_back(st);
  }, opts);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kNp - 1));
  for (Status st : got) EXPECT_FALSE(ok(st));
  EXPECT_NE(std::count(got.begin(), got.end(), Status::kErrProcFailed), 0);
  EXPECT_EQ(maps.value(), maps_before);
}

INSTANTIATE_TEST_SUITE_P(Families, CollFault,
                         ::testing::Values("p2p", "nic", "hier", "hiernic"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace oqs
