// Configuration of the Elan4 PTL — every knob the paper evaluates, and the
// one rendezvous selector (Scheme) for the whole stack.
#pragma once

#include <cstdint>

namespace oqs::ptl_elan4 {

// Long-message scheme: the one rendezvous selector.
enum class Scheme {
  // The BML's fragment schedule (pml/frag_schedule.h): inline prefix and
  // pushed fragments behind the RTS, chunked pulls striped across rails.
  // Every PTL shares it.
  kPipelined,
  // The paper's monolithic schemes (§4.2, Figs. 3 and 4), run by this PTL
  // on the one chosen rail. They carry no payload checksum, so reliability
  // runs the fragment schedule instead:
  kRdmaRead,   // receiver GETs the data, then FIN_ACK to the sender
  kRdmaWrite,  // receiver ACKs with its address; sender PUTs, then FIN
};

// How local RDMA completions are detected (paper §4.3, Fig. 6).
enum class Completion {
  kDirectPoll,     // poll each descriptor's own host event ("Basic")
  kSharedCombined, // chained QDMA into the main receive queue (One-Queue)
  kSharedSeparate, // chained QDMA into a dedicated queue (Two-Queue)
};

// Progress mode (paper §6.4, Table 1).
enum class Progress {
  kPolling,     // application thread polls
  kInterrupt,   // application blocks in the PTL on device interrupts
  kOneThread,   // one progress thread on the combined queue
  kTwoThreads,  // recv-queue thread + completion-queue thread
};

struct Options {
  Scheme scheme = Scheme::kPipelined;
  // Carry an eager-limit payload prefix in the rendezvous first fragment
  // (paper §6.1 ablation; the best configuration leaves this off on RDMA
  // networks). Read only by the paper schemes: the fragment schedule sizes
  // its own inline prefix.
  bool inline_rendezvous = false;
  Completion completion = Completion::kDirectPoll;
  Progress progress = Progress::kPolling;
  // Chain the FIN/FIN_ACK QDMA to the last RDMA via the chained-event
  // mechanism (paper §4.2; ablated in Fig. 8 as Read-NoChain).
  bool chained_fin = true;
  // Route pack/unpack through the datatype copy engine and charge its cost;
  // false models the paper's memcpy() replacement (Fig. 7 "DTP" ablation
  // measures the difference).
  bool use_dtype_engine = false;
  // End-to-end reliability (LA-MPI heritage): CRC32C on every frame with
  // NACK-driven go-back-N retransmission. Rendezvous payloads then ride the
  // fragment schedule whatever `scheme` says: it checksums each fragment
  // and re-pulls a corrupt one (pml/bml.cc caps the re-pulls).
  bool reliability = false;
  // Read by nothing. Kept only because perfbench/main.cc still sets it;
  // goes once that line does.
  int max_data_retries = 3;
  // --- Reliability protocol tuning (active only with reliability on; the
  // ack and retransmission timing is fixed in ptl/reliable_stream.h) ---
  // Max unacknowledged sequenced frames per peer. Frames beyond the window
  // queue in a per-peer backlog; application sends block (backpressure)
  // instead of history ever being dropped.
  std::uint32_t send_window = 256;
  // Initial frame_seq value (both sides of a pairing must agree). Test hook
  // for exercising uint16 wraparound without sending 65,000 warmup frames.
  std::uint16_t seq_start = 0;
  // Host receive-queue slots (QSLOTS).
  std::uint32_t qslots = 2048;
  // Rails for the multirail extension. Consumed by the MPI bring-up, which
  // instantiates one PtlElan4 module per rail ("elan4", "elan4.1", ...);
  // the BML stripes long rendezvous payloads across them and keeps control
  // traffic on the primary (lowest-latency) rail.
  int rails = 1;
};

}  // namespace oqs::ptl_elan4
