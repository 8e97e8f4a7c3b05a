// Structured tracing for the simulated stack.
//
// A Tracer records an ordered stream of events {sim_time, node, layer, name,
// args} from instrumentation macros threaded through every layer. Two
// consumers exist:
//   1. Humans: write_chrome_json() emits Chrome trace format (load the file
//      in Perfetto / chrome://tracing; pid = node, tid = layer).
//   2. Tests: digest() folds the ordered stream into a 64-bit FNV-1a hash —
//      the replay fingerprint. Two runs of the DES with the same seed must
//      produce the same digest; tests/sim/replay_test.cc enforces it.
//
// Cost model: with no tracer installed the macros are one relaxed load and a
// predictable branch; configuring with -DOQS_TRACE=OFF compiles them to
// nothing. Recording never consumes simulated time, so enabling a trace can
// never change a bench's reported numbers — only wall clock.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace oqs::obs {

using TimeNs = std::uint64_t;

struct TraceEvent {
  TimeNs ts = 0;        // simulated ns
  std::int32_t node = -1;  // chrome pid; -1 = machine-wide
  char ph = 'i';        // 'i' instant, 'X' complete (dur valid)
  TimeNs dur = 0;       // for 'X'
  const char* layer = "";  // chrome tid ("sim", "elan4", "ptl", "pml", ...)
  const char* name = "";
  // Up to two numeric arguments; nullptr key = absent. Only deterministic
  // values (sizes, ids, seqs) belong here — never host pointers.
  const char* k0 = nullptr;
  std::uint64_t v0 = 0;
  const char* k1 = nullptr;
  std::uint64_t v1 = 0;
};

class Tracer {
 public:
  Tracer() = default;

  void record(char ph, int node, const char* layer, const char* name,
              const char* k0 = nullptr, std::uint64_t v0 = 0,
              const char* k1 = nullptr, std::uint64_t v1 = 0);
  void record_span(TimeNs begin, int node, const char* layer, const char* name,
                   const char* k0 = nullptr, std::uint64_t v0 = 0,
                   const char* k1 = nullptr, std::uint64_t v1 = 0);

  std::size_t size() const { return events_.size(); }
  const std::vector<TraceEvent>& events() const { return events_; }

  // Storage cap: every event past the limit is still folded into the digest
  // (so determinism checks always cover the full run) but not retained for
  // export. dropped() says how many; the JSON writer logs it too — a trace
  // that was cut short must never read as complete.
  void set_store_limit(std::size_t n) { store_limit_ = n; }
  std::size_t dropped() const { return dropped_; }

  // Order-sensitive 64-bit FNV-1a over the full stream (incrementally
  // maintained, so reading it is free).
  std::uint64_t digest() const { return digest_; }
  // The same fold over only the events outside the "sim" layer: protocol
  // order with the DES kernel's own dispatches, parks and spawns left out.
  // An execution change that keeps every protocol event and its timing
  // (e.g. parking an idle poller instead of dispatching its steps) moves
  // digest() but must leave this one alone.
  std::uint64_t protocol_digest() const { return protocol_digest_; }

  // Number of recorded events whose layer string equals `layer`.
  std::size_t count_layer(const char* layer) const;

  void write_chrome_json(std::ostream& os) const;
  // Returns false (and logs) if the file cannot be written.
  bool write_chrome_json_file(const std::string& path) const;

 private:
  static std::uint64_t fold(std::uint64_t h, const TraceEvent& e);
  void push(const TraceEvent& e);

  std::vector<TraceEvent> events_;
  std::size_t store_limit_ = 1u << 20;
  std::size_t dropped_ = 0;
  std::uint64_t digest_ = 14695981039346656037ull;  // FNV offset basis
  std::uint64_t protocol_digest_ = 14695981039346656037ull;
};

// --- global installation -------------------------------------------------
// The simulation is single-threaded, so a plain global suffices. The engine
// installs the clock (like log::set_clock); benches/tests install a Tracer
// for the duration of a run. tracer() sits on the event-dispatch hot path —
// an inline variable keeps the not-tracing case to one load and a
// never-taken branch instead of a cross-TU call.
namespace detail {
inline Tracer* g_tracer = nullptr;
}
inline Tracer* tracer() { return detail::g_tracer; }
void set_tracer(Tracer* t);
void set_clock(std::function<TimeNs()> now_ns);
TimeNs now_ns();

// RAII span: emits one 'X' event covering its scope. Safe across fiber
// blocking points (sim time may advance inside the scope).
class Span {
 public:
  Span(int node, const char* layer, const char* name,
       const char* k0 = nullptr, std::uint64_t v0 = 0)
      : active_(tracer() != nullptr),
        begin_(active_ ? now_ns() : 0),
        node_(node), layer_(layer), name_(name), k0_(k0), v0_(v0) {}
  ~Span() {
    if (Tracer* t = active_ ? tracer() : nullptr)
      t->record_span(begin_, node_, layer_, name_, k0_, v0_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
  TimeNs begin_;
  int node_;
  const char* layer_;
  const char* name_;
  const char* k0_;
  std::uint64_t v0_;
};

}  // namespace oqs::obs

// --- instrumentation macros ----------------------------------------------
// OQS_TRACE_DISABLED is defined by the build system when -DOQS_TRACE=OFF.
#if defined(OQS_TRACE_DISABLED)
#define OQS_TRACE_INSTANT(node, layer, name, ...) ((void)0)
#define OQS_TRACE_SPAN(var, node, layer, ...) ((void)0)
#define OQS_TRACE_SPAN_FROM(begin, node, layer, name, ...) ((void)0)
#define OQS_TRACE_NOW() (::oqs::obs::TimeNs{0})
#else
#define OQS_TRACE_INSTANT(node, layer, name, ...)                         \
  do {                                                                    \
    if (::oqs::obs::Tracer* oqs_tr_ = ::oqs::obs::tracer())               \
      oqs_tr_->record('i', (node), (layer), (name), ##__VA_ARGS__);       \
  } while (0)
#define OQS_TRACE_SPAN(var, node, layer, ...) \
  ::oqs::obs::Span var((node), (layer), ##__VA_ARGS__)
// Span whose begin timestamp was captured earlier (e.g. command post time,
// with the matching end inside a completion callback).
#define OQS_TRACE_SPAN_FROM(begin, node, layer, name, ...)                 \
  do {                                                                     \
    if (::oqs::obs::Tracer* oqs_tr_ = ::oqs::obs::tracer())                \
      oqs_tr_->record_span((begin), (node), (layer), (name), ##__VA_ARGS__); \
  } while (0)
#define OQS_TRACE_NOW() (::oqs::obs::now_ns())
#endif
