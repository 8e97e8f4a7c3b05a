// RDMA read/write: data movement through the MMU, fragmentation, events on
// both sides, chaining, and fault handling.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "elan4/device.h"
#include "elan4/qsnet.h"
#include "sim/rng.h"

namespace oqs::elan4 {
namespace {

struct RdmaFixture : ::testing::Test {
  sim::Engine engine;
  ModelParams params;
  std::unique_ptr<QsNet> net;
  std::unique_ptr<Elan4Device> d0;
  std::unique_ptr<Elan4Device> d1;

  void SetUp() override {
    net = std::make_unique<QsNet>(engine, params, 2);
    d0 = net->open(0);
    d1 = net->open(1);
    ASSERT_TRUE(d0 && d1);
  }
};

TEST_F(RdmaFixture, WriteMovesDataAndFiresBothEvents) {
  std::vector<std::uint8_t> src(1024);
  std::vector<std::uint8_t> dst(1024, 0);
  std::iota(src.begin(), src.end(), 7);

  engine.spawn("t", [&] {
    E4Addr rsrc = d0->map(src.data(), src.size());
    E4Addr rdst = d1->map(dst.data(), dst.size());
    E4Event* local = d0->alloc_event("w-local");
    E4Event* remote = d1->alloc_event("w-remote");
    local->init(1);
    remote->init(1);
    d0->rdma_write(d1->vpid(), rsrc, rdst, 1024, local, remote);
    local->wait_block();
    EXPECT_EQ(local->status(), Status::kOk);
    EXPECT_TRUE(remote->done());  // remote fires before the ack returns
    EXPECT_EQ(dst, src);
  });
  engine.run();
}

TEST_F(RdmaFixture, WriteLargerThanMtuFragmentsCorrectly) {
  const std::size_t len = 3 * params.mtu + 517;
  std::vector<std::uint8_t> src(len);
  std::vector<std::uint8_t> dst(len, 0);
  sim::Rng rng(42);
  rng.fill(src.data(), src.size());

  engine.spawn("t", [&] {
    E4Addr rsrc = d0->map(src.data(), src.size());
    E4Addr rdst = d1->map(dst.data(), dst.size());
    E4Event* local = d0->alloc_event("w");
    local->init(1);
    d0->rdma_write(d1->vpid(), rsrc, rdst, static_cast<std::uint32_t>(len), local);
    local->wait_block();
    EXPECT_EQ(dst, src);
  });
  engine.run();
}

TEST_F(RdmaFixture, ReadPullsRemoteData) {
  std::vector<std::uint8_t> remote_buf(2000);
  std::vector<std::uint8_t> local_buf(2000, 0);
  std::iota(remote_buf.begin(), remote_buf.end(), 3);

  engine.spawn("t", [&] {
    E4Addr raddr = d1->map(remote_buf.data(), remote_buf.size());
    E4Addr laddr = d0->map(local_buf.data(), local_buf.size());
    E4Event* done = d0->alloc_event("r");
    done->init(1);
    d0->rdma_read(d1->vpid(), raddr, laddr, 2000, done);
    done->wait_block();
    EXPECT_EQ(done->status(), Status::kOk);
    EXPECT_EQ(local_buf, remote_buf);
  });
  engine.run();
}

TEST_F(RdmaFixture, ReadIsSlowerThanWriteBySmallDelta) {
  // A read costs an extra wire crossing (the GET request) compared to a
  // write of the same size observed at the data's destination.
  std::vector<std::uint8_t> a(4096);
  std::vector<std::uint8_t> b(4096);
  sim::Time write_done = 0;
  sim::Time read_done = 0;

  engine.spawn("writer", [&] {
    E4Addr rsrc = d0->map(a.data(), a.size());
    E4Addr rdst = d1->map(b.data(), b.size());
    E4Event* remote = d1->alloc_event("w-rem");
    remote->init(1);
    E4Event* local = d0->alloc_event("w-loc");
    local->init(1);
    sim::Time t0 = engine.now();
    d0->rdma_write(d1->vpid(), rsrc, rdst, 4096, local, remote);
    local->wait_block();
    write_done = engine.now() - t0;

    E4Event* rd = d0->alloc_event("r");
    rd->init(1);
    t0 = engine.now();
    d0->rdma_read(d1->vpid(), rdst, rsrc, 4096, rd);
    rd->wait_block();
    read_done = engine.now() - t0;
  });
  engine.run();
  EXPECT_GT(read_done, 0u);
  EXPECT_GT(write_done, 0u);
  // Both are round trips here (write waits for ack), so the difference is
  // just the GET processing; they should be within ~30% of each other.
  EXPECT_LT(read_done, write_done * 13 / 10);
}

TEST_F(RdmaFixture, WriteToUnmappedRemoteFaults) {
  std::vector<std::uint8_t> src(256);
  engine.spawn("t", [&] {
    E4Addr rsrc = d0->map(src.data(), src.size());
    E4Event* local = d0->alloc_event("w");
    local->init(1);
    d0->rdma_write(d1->vpid(), rsrc, /*bogus=*/0xDEAD0000, 256, local);
    local->wait_block();
    EXPECT_EQ(local->status(), Status::kFault);
    EXPECT_GE(net->nic(1).translation_faults(), 1u);
  });
  engine.run();
}

TEST_F(RdmaFixture, WriteFromUnmappedLocalFaultsImmediately) {
  engine.spawn("t", [&] {
    E4Event* local = d0->alloc_event("w");
    local->init(1);
    d0->rdma_write(d1->vpid(), /*bogus=*/0xBEEF0000, 0x10000, 256, local);
    local->wait_block();
    EXPECT_EQ(local->status(), Status::kFault);
    EXPECT_GE(net->nic(0).translation_faults(), 1u);
  });
  engine.run();
}

TEST_F(RdmaFixture, SourceUnmappedMidTrainFaults) {
  // The owner gives up on a transfer and unmaps (then may free) its source
  // while the NIC is still streaming it: the fragments after the unmap
  // fault instead of reading the region, and so does the transfer.
  std::vector<std::uint8_t> src(64 * 1024, 0xAB);
  std::vector<std::uint8_t> dst(src.size(), 0);
  engine.spawn("t", [&] {
    E4Addr rsrc = d0->map(src.data(), src.size());
    E4Addr rdst = d1->map(dst.data(), dst.size());
    E4Event* local = d0->alloc_event("w");
    local->init(1);
    d0->rdma_write(d1->vpid(), rsrc, rdst,
                   static_cast<std::uint32_t>(src.size()), local);
    engine.sleep(10 * sim::kUs);
    ASSERT_FALSE(local->done());
    d0->unmap(rsrc);
    local->wait_block();
    EXPECT_EQ(local->status(), Status::kFault);
    EXPECT_GE(net->nic(0).translation_faults(), 1u);
  });
  engine.run();
}

TEST_F(RdmaFixture, ReadFromUnmappedRemoteFaults) {
  std::vector<std::uint8_t> local_buf(256);
  engine.spawn("t", [&] {
    E4Addr laddr = d0->map(local_buf.data(), local_buf.size());
    E4Event* done = d0->alloc_event("r");
    done->init(1);
    d0->rdma_read(d1->vpid(), 0xDEAD0000, laddr, 256, done);
    done->wait_block();
    EXPECT_EQ(done->status(), Status::kFault);
  });
  engine.run();
}

TEST_F(RdmaFixture, ZeroLengthWriteCompletesAndFiresRemote) {
  engine.spawn("t", [&] {
    E4Event* local = d0->alloc_event("w0");
    E4Event* remote = d1->alloc_event("r0");
    local->init(1);
    remote->init(1);
    d0->rdma_write(d1->vpid(), kNullE4Addr, kNullE4Addr, 0, local, remote);
    local->wait_block();
    remote->wait_block();
    EXPECT_EQ(local->status(), Status::kOk);
  });
  engine.run();
}

TEST_F(RdmaFixture, ChainedFinAfterWrite) {
  // The paper's RDMA-write + chained FIN: the FIN QDMA must arrive at the
  // peer only after the write's data is visible there.
  std::vector<std::uint8_t> src(8192, 0x5A);
  std::vector<std::uint8_t> dst(8192, 0);

  engine.spawn("t", [&] {
    QdmaQueue* fin_q = d1->create_queue(8);
    E4Addr rsrc = d0->map(src.data(), src.size());
    E4Addr rdst = d1->map(dst.data(), dst.size());
    E4Event* local = d0->alloc_event("w");
    local->init(1);
    QdmaCmd fin;
    fin.src_vpid = d0->vpid();
    fin.dest_vpid = d1->vpid();
    fin.dest_queue = fin_q->id();
    fin.data = {0xF1};
    local->chain(fin);
    d0->rdma_write(d1->vpid(), rsrc, rdst, 8192, local);

    d1->queue_wait(fin_q);
    QdmaQueue::Slot s;
    ASSERT_TRUE(fin_q->consume(&s));
    EXPECT_EQ(s.data[0], 0xF1);
    // Data visible at the receiver by FIN arrival.
    EXPECT_EQ(dst, src);
  });
  engine.run();
}

TEST_F(RdmaFixture, CountEventAggregatesMultipleWrites) {
  constexpr int kN = 5;
  std::vector<std::vector<std::uint8_t>> srcs;
  std::vector<std::vector<std::uint8_t>> dsts;
  for (int i = 0; i < kN; ++i) {
    srcs.emplace_back(1000, static_cast<std::uint8_t>(i + 1));
    dsts.emplace_back(1000, 0);
  }
  engine.spawn("t", [&] {
    E4Event* all = d0->alloc_event("agg");
    all->init(kN);
    for (int i = 0; i < kN; ++i) {
      auto& s = srcs[static_cast<std::size_t>(i)];
      auto& d = dsts[static_cast<std::size_t>(i)];
      E4Addr rs = d0->map(s.data(), s.size());
      E4Addr rd = d1->map(d.data(), d.size());
      d0->rdma_write(d1->vpid(), rs, rd, 1000, all);
    }
    all->wait_block();
    for (int i = 0; i < kN; ++i)
      EXPECT_EQ(dsts[static_cast<std::size_t>(i)], srcs[static_cast<std::size_t>(i)]);
  });
  engine.run();
}

TEST_F(RdmaFixture, BandwidthApproachesLinkRateForLargeTransfers) {
  const std::size_t len = 1 << 20;  // 1 MB
  std::vector<std::uint8_t> src(len, 0xCD);
  std::vector<std::uint8_t> dst(len, 0);
  double mbps = 0;
  engine.spawn("t", [&] {
    E4Addr rs = d0->map(src.data(), src.size());
    E4Addr rd = d1->map(dst.data(), dst.size());
    E4Event* done = d0->alloc_event("bw");
    done->init(1);
    sim::Time t0 = engine.now();
    d0->rdma_write(d1->vpid(), rs, rd, static_cast<std::uint32_t>(len), done);
    done->wait_block();
    const double us = sim::to_us(engine.now() - t0);
    mbps = static_cast<double>(len) / us;  // bytes/us == MB/s
  });
  engine.run();
  // PCI-X (850 MB/s) is the bottleneck; expect within 20% of it.
  EXPECT_GT(mbps, 0.8 * params.pci_mbps);
  EXPECT_LT(mbps, params.pci_mbps * 1.05);
}

}  // namespace
}  // namespace oqs::elan4
