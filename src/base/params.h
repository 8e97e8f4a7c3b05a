// Model parameters for the simulated testbed.
//
// The paper's testbed: eight SuperMicro X5DL8-GG nodes (dual 3.0 GHz Xeon,
// PCI-X 64/133, 533 MHz FSB) on a QsNetII QS-8A quaternary fat-tree with
// Elan4 QM-500 cards. Every host/NIC/wire cost in the simulation is a knob
// here; protocol *behaviour* (extra round trips, pipelining, chaining) is
// real code in the respective modules. Defaults are calibrated against the
// paper's reported numbers (Figs. 7-10, Table 1) — see EXPERIMENTS.md.
#pragma once

#include <cstdint>

namespace oqs {

using TimeNs = std::uint64_t;

struct ModelParams {
  // ---- Host software path (charged on a node CPU core) ----
  TimeNs host_pio_write_ns = 60;        // flush one command word to the NIC
  TimeNs host_qdma_post_ns = 250;       // build + post a QDMA descriptor
  TimeNs host_rdma_post_ns = 400;       // build + post an RDMA descriptor
  TimeNs host_poll_ns = 80;             // one poll of a host event word
  TimeNs host_event_wait_setup_ns = 120;  // arm a host event for blocking
  double host_memcpy_mbps = 2500.0;     // slot <-> user buffer copy rate
  TimeNs host_memcpy_startup_ns = 60;
  double crc_mbps = 1800.0;             // CRC32C rate (reliability mode)

  // Datatype engine (the "DTP" overhead of Fig. 7: ~0.4us per message
  // one-way; charged once per request on each side).
  TimeNs dtype_engine_startup_ns = 200;  // initialize the convertor/copy engine
  double dtype_pack_mbps = 2200.0;       // non-contiguous pack/unpack rate

  // PML and MPI layers (Fig. 9: "PML layer and above" ~ 0.5us one-way).
  TimeNs pml_match_ns = 200;     // descend match lists, bind request
  TimeNs pml_sched_ns = 180;     // choose PTL, build fragment descriptor
  TimeNs pml_complete_ns = 120;  // request completion bookkeeping
  TimeNs mpi_call_ns = 80;       // argument checking, request setup

  // Progress machinery (Table 1: interrupt ~ +10us; threading ~ +9us more).
  TimeNs interrupt_ns = 10000;     // device IRQ -> host wakeup out of block
  // Portion of interrupt_ns serialized on the node's interrupt path (both
  // interrupt and processor affinity left at defaults, §6.4): concurrent
  // IRQs queue behind each other for this long.
  TimeNs irq_service_ns = 4000;
  TimeNs thread_wakeup_ns = 8500;  // condvar signal -> other thread running
  TimeNs ctx_switch_ns = 900;      // CPU scheduler switch between fibers
  unsigned cores_per_node = 2;     // dual Xeon
  // Shared 533 MHz FSB: concurrently running threads slow each other down
  // (per additional busy core). This is the "contention on CPU and memory
  // resources" that makes two-thread progress costlier (§6.4).
  double fsb_contention = 0.35;

  // ---- Elan4 NIC ----
  TimeNs nic_qdma_start_ns = 1200;    // fetch + launch one QDMA descriptor
  TimeNs nic_rdma_start_ns = 900;    // fetch + launch one RDMA descriptor
  TimeNs nic_frag_ns = 120;          // per-packet engine overhead
  TimeNs nic_mmu_lookup_ns = 90;     // E4_Addr translation per descriptor
  TimeNs nic_event_fire_ns = 100;    // retire an E4 event
  TimeNs nic_chain_fire_ns = 150;    // fire a chained command from the NIC
  TimeNs nic_slot_write_ns = 750;    // land a QDMA into a host queue slot
  TimeNs nic_rdma_read_req_ns = 500; // remote side turns a GET into a stream
  TimeNs nic_tport_match_ns = 350;   // Tport NIC-side tag match
  // NIC-offloaded collectives (combining-tree barrier/allreduce): the NIC
  // processor lands + element-wise sums a collective frame itself.
  TimeNs nic_combine_startup_ns = 200;
  double nic_combine_mbps = 800.0;   // firmware reduction rate
  TimeNs tport_cmd_ns = 220;         // host cost to post one Tport command
  double pci_mbps = 920.0;           // PCI-X 64/133 effective DMA rate
  std::uint32_t mtu = 2048;          // max payload per wire packet

  // ---- QsNetII fabric ----
  TimeNs hop_ns = 280;          // per Elite4 hop (cut-through)
  TimeNs link_startup_ns = 90;  // per-packet serialization startup
  double link_mbps = 960.0;     // effective link data rate

  // ---- Multirail (BML striping across rails, paper §2.2) ----
  // The pipelined rendezvous stripes per pull fragment across every rail
  // the runtime brought up. An overdue stripe pull (deadline =
  // stripe_timeout_ns + 8x its modeled transfer time) marks its rail
  // suspect and fails over to a survivor.
  TimeNs stripe_timeout_ns = 50'000'000;

  // ---- Pipelined rendezvous (chunked-RDMA overlap) ----
  // Long messages split into pull fragments of pipeline_frag_bytes; at most
  // pipeline_depth pulls are in flight per rail, and the sender pushes
  // pipeline_push_frags eager-sized frames behind the RTS so payload is
  // already streaming while the receiver matches. Messages no longer than
  // one fragment are pushed whole (plan_frags folds the tail): a single
  // pull cannot overlap anything, so its RDMA + FIN round trip only delays
  // completion. Above that size the handshake is already amortized, so one
  // pushed frame covers the match latency; more only adds host-copy cost
  // (the fig10 crossover table is how these defaults were chosen).
  // Per-fragment MMU mapping pays nic_mmu_map_page_ns per page, which the
  // pipeline overlaps with transfer where the monolithic pull serialized it
  // up front. These three are the schedule's only tuning (Bml::pipeline_*
  // clamp them: frag 0 -> 16384, depth <= 0 -> 1, push < 0 -> 0).
  std::size_t pipeline_frag_bytes = 16384;
  int pipeline_depth = 4;
  int pipeline_push_frags = 1;
  TimeNs nic_mmu_map_page_ns = 40;

  // ---- Collectives framework (src/mpi/coll) ----
  // NIC combining tree: fan-in/out per tree level, the payload ceiling for
  // the NIC-resident allreduce (one QDMA slot), and the communicator size
  // below which the host dissemination barrier wins anyway.
  int coll_nic_radix = 4;
  std::size_t coll_nic_max_bytes = 2048;
  int coll_nic_min_ranks = 4;
  // Host reference allreduce: reduce-scatter+allgather takes over from
  // recursive doubling at this payload size (bandwidth- vs latency-bound).
  std::size_t coll_rsag_min_bytes = 4096;
  // Intra-node shared-memory phase: cost of one flag write/read hop
  // (cache-line transfer between the two cores); copies ride
  // host_memcpy_mbps.
  TimeNs shm_flag_ns = 250;

  // ---- Simulated kernel TCP path (reference PTL) ----
  TimeNs syscall_ns = 1200;
  TimeNs tcp_stack_ns = 4000;     // per-packet protocol processing
  double tcp_copy_mbps = 1200.0;  // user<->kernel copy rate
  std::uint32_t tcp_mss = 1460;
  TimeNs eth_latency_ns = 30000;    // management-Ethernet propagation
  double tcp_wire_mbps = 110.0;     // GigE-era effective stream rate
  std::uint32_t tcp_chunk = 32768;  // pushed pipeline fragment size
  std::uint32_t tcp_eager = 65536;  // TCP PTL eager threshold

  // ---- Out-of-band (management Ethernet) control network ----
  TimeNs oob_latency_ns = 55000;
  double oob_mbps = 90.0;

  // ---- Fault injection (reliability testing; all off by default) ----
  // Wire faults apply only to loss-protected traffic (the Elan4 PTL's
  // sequenced QDMA frames); corruption applies to landing payloads. All
  // draws come from RNG streams seeded by fault_seed, so a given seed
  // reproduces the identical fault schedule.
  double fault_drop_prob = 0.0;       // packet vanishes on the wire
  double fault_corrupt_prob = 0.0;    // one bit flipped in a landing payload
  double fault_duplicate_prob = 0.0;  // packet delivered twice
  double fault_delay_prob = 0.0;      // packet held past its slot
  TimeNs fault_delay_ns = 25000;      // how long a delayed packet is held
  std::uint64_t fault_seed = 1;

  // ---- Process-failure detection (rte::FailureService) ----
  // Every launched process heartbeats the head node over the OOB network at
  // heartbeat_interval_ns. A process silent for failure_dead_misses
  // consecutive intervals is declared dead; when a PTL retransmission
  // watchdog has additionally reported it suspect (suspect_timeouts
  // consecutive unproductive timeouts on a reliable stream), the shorter
  // failure_suspect_misses window confirms the death instead.
  TimeNs heartbeat_interval_ns = 500000;  // 0.5 ms
  int failure_dead_misses = 6;            // silence-only declaration window
  int failure_suspect_misses = 2;         // corroborated declaration window
  int suspect_timeouts = 6;  // stream timeouts in a row -> peer suspect

  // Time to move `bytes` at `mbps` (1 MB/s == 1 byte/us).
  static TimeNs xfer_ns(std::uint64_t bytes, double mbps) {
    if (bytes == 0 || mbps <= 0.0) return 0;
    return static_cast<TimeNs>(static_cast<double>(bytes) * 1000.0 / mbps);
  }
};

}  // namespace oqs
