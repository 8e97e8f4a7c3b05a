#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>

#include "base/log.h"

namespace oqs::obs {

namespace {

std::function<TimeNs()> g_clock;

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof(v));
}

std::uint64_t fnv1a_str(std::uint64_t h, const char* s) {
  if (s == nullptr) return fnv1a_u64(h, 0);
  std::size_t len = 0;
  while (s[len] != '\0') ++len;
  return fnv1a(h, s, len + 1);  // include the NUL as a separator
}

// Minimal JSON string escaping for event/layer names (all are identifiers
// today; keep the export safe if one ever grows a quote).
void write_escaped(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') os << '\\';
    os << *s;
  }
}

}  // namespace

void set_tracer(Tracer* t) { detail::g_tracer = t; }
void set_clock(std::function<TimeNs()> now_ns) { g_clock = std::move(now_ns); }
TimeNs now_ns() { return g_clock ? g_clock() : 0; }

std::uint64_t Tracer::fold(std::uint64_t h, const TraceEvent& e) {
  h = fnv1a_u64(h, e.ts);
  h = fnv1a_u64(h, static_cast<std::uint64_t>(e.node));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(e.ph));
  h = fnv1a_u64(h, e.dur);
  h = fnv1a_str(h, e.layer);
  h = fnv1a_str(h, e.name);
  h = fnv1a_str(h, e.k0);
  h = fnv1a_u64(h, e.v0);
  h = fnv1a_str(h, e.k1);
  h = fnv1a_u64(h, e.v1);
  return h;
}

void Tracer::push(const TraceEvent& e) {
  digest_ = fold(digest_, e);
  if (std::strcmp(e.layer, "sim") != 0)
    protocol_digest_ = fold(protocol_digest_, e);
  if (events_.size() >= store_limit_) {
    ++dropped_;
    return;
  }
  events_.push_back(e);
}

void Tracer::record(char ph, int node, const char* layer, const char* name,
                    const char* k0, std::uint64_t v0, const char* k1,
                    std::uint64_t v1) {
  TraceEvent e;
  e.ts = now_ns();
  e.node = node;
  e.ph = ph;
  e.layer = layer;
  e.name = name;
  e.k0 = k0;
  e.v0 = v0;
  e.k1 = k1;
  e.v1 = v1;
  push(e);
}

void Tracer::record_span(TimeNs begin, int node, const char* layer,
                         const char* name, const char* k0, std::uint64_t v0,
                         const char* k1, std::uint64_t v1) {
  TraceEvent e;
  e.ts = begin;
  e.dur = now_ns() - begin;
  e.node = node;
  e.ph = 'X';
  e.layer = layer;
  e.name = name;
  e.k0 = k0;
  e.v0 = v0;
  e.k1 = k1;
  e.v1 = v1;
  push(e);
}

std::size_t Tracer::count_layer(const char* layer) const {
  std::size_t n = 0;
  for (const TraceEvent& e : events_) {
    const char* a = e.layer;
    const char* b = layer;
    while (*a != '\0' && *a == *b) {
      ++a;
      ++b;
    }
    if (*a == '\0' && *b == '\0') ++n;
  }
  return n;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  // Chrome trace format, JSON-array flavour: ts/dur are microseconds
  // (fractional allowed — we emit ns/1000 with three decimals so no
  // precision is lost), pid = simulated node, tid = layer name.
  os << "{\"traceEvents\":[\n";
  bool first = true;
  for (const TraceEvent& e : events_) {
    if (!first) os << ",\n";
    first = false;
    char ts[64];
    std::snprintf(ts, sizeof(ts), "%" PRIu64 ".%03u", e.ts / 1000,
                  static_cast<unsigned>(e.ts % 1000));
    os << "{\"name\":\"";
    write_escaped(os, e.name);
    os << "\",\"ph\":\"" << e.ph << "\",\"ts\":" << ts;
    if (e.ph == 'X') {
      char dur[64];
      std::snprintf(dur, sizeof(dur), "%" PRIu64 ".%03u", e.dur / 1000,
                    static_cast<unsigned>(e.dur % 1000));
      os << ",\"dur\":" << dur;
    }
    if (e.ph == 'i') os << ",\"s\":\"t\"";
    os << ",\"pid\":" << e.node << ",\"tid\":\"";
    write_escaped(os, e.layer);
    os << "\"";
    if (e.k0 != nullptr) {
      os << ",\"args\":{\"";
      write_escaped(os, e.k0);
      os << "\":" << e.v0;
      if (e.k1 != nullptr) {
        os << ",\"";
        write_escaped(os, e.k1);
        os << "\":" << e.v1;
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

bool Tracer::write_chrome_json_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    log::error("obs", "cannot open trace file ", path);
    return false;
  }
  if (dropped_ > 0)
    log::warn("obs", "trace truncated: ", dropped_,
              " events past the store limit were digested but not exported");
  write_chrome_json(f);
  return f.good();
}

}  // namespace oqs::obs
