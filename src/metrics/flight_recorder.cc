#include "src/metrics/flight_recorder.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "src/common/clock.h"

namespace plp {

namespace {

// Raw pointer mirror of the function-local singleton so the signal handler
// never runs a guarded static initializer. Set once in Global().
std::atomic<FlightRecorder*> g_recorder{nullptr};

struct TypeDesc {
  const char* name;
  const char* cat;
  char phase;  // 'X' = complete span, 'i' = instant
};

constexpr TypeDesc kTypeDesc[kNumTraceEventTypes] = {
    {"none", "none", 'i'},
    {"latch_wait", "sync", 'X'},
    {"cs_wait", "sync", 'X'},
    {"lock_wait", "sync", 'X'},
    {"wal_fsync", "io", 'X'},
    {"buf_miss", "io", 'X'},
    {"evict_writeback", "io", 'X'},
    {"partition_phase", "engine", 'i'},
    {"checkpoint", "engine", 'X'},
    {"recovery", "engine", 'X'},
    {"marker", "test", 'i'},
};

// --- async-signal-safe formatting helpers (write(2) only) -------------------

void FdWrite(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n <= 0) return;  // best effort: crashing anyway
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

void FdWriteStr(int fd, const char* s) { FdWrite(fd, s, std::strlen(s)); }

void FdWriteU64(int fd, std::uint64_t v) {
  char buf[20];
  char* p = buf + sizeof(buf);
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  FdWrite(fd, p, static_cast<std::size_t>(buf + sizeof(buf) - p));
}

void CrashDumpHandler(int sig) {
  FlightRecorder* fr = g_recorder.load(std::memory_order_acquire);
  if (fr != nullptr) {
    FdWriteStr(STDERR_FILENO, "\n[flight-recorder] fatal signal ");
    FdWriteU64(STDERR_FILENO, static_cast<std::uint64_t>(sig));
    FdWriteStr(STDERR_FILENO, ", dumping black box\n");
    fr->DumpBlackBox(STDERR_FILENO);
  }
  // SA_RESETHAND restored the default disposition; re-raise so the process
  // still dies with the original signal (core dump, sanitizer report, ...).
  ::raise(sig);
}

std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

}  // namespace

const char* TraceEventTypeName(TraceEventType t) {
  const auto i = static_cast<std::size_t>(t);
  return i < kNumTraceEventTypes ? kTypeDesc[i].name : "invalid";
}

FlightRecorder::FlightRecorder() {
  enabled_.store(EnvU64("PLP_TRACE", 1) != 0, std::memory_order_relaxed);
  wait_threshold_ns_.store(EnvU64("PLP_TRACE_WAIT_NS", 1000),
                           std::memory_order_relaxed);
}

FlightRecorder& FlightRecorder::Global() {
  // Leaked: rings must outlive every recording thread and stay mapped for
  // the signal handler, and thread_local destructor order at process exit
  // is unknowable. Same lifetime pattern as CsProfiler.
  static FlightRecorder* instance = [] {
    auto* fr = new FlightRecorder();
    g_recorder.store(fr, std::memory_order_release);
    return fr;
  }();
  return *instance;
}

// --- per-thread rings -------------------------------------------------------

namespace {

// Releases the ring for recycling when its thread exits. The ring and its
// events stay on the all-rings list (still dumpable post-mortem) until a
// new thread claims it.
struct RingReleaser {
  std::atomic<bool>* active = nullptr;
  ~RingReleaser() {
    if (active != nullptr) active->store(false, std::memory_order_release);
  }
};

}  // namespace

FlightRecorder::ThreadRing* FlightRecorder::LocalRing() {
  thread_local ThreadRing* ring = nullptr;
  thread_local RingReleaser releaser;
  if (ring == nullptr) {
    ring = Global().AcquireRing();
    releaser.active = &ring->active;
  }
  return ring;
}

FlightRecorder::ThreadRing* FlightRecorder::AcquireRing() {
  SpinlockGuard g(reg_lock_);
  // Recycle a retired ring if one exists: thread churn (workload drivers
  // re-create client pools per window) must not grow memory unboundedly.
  for (ThreadRing* r = all_rings_.load(std::memory_order_acquire);
       r != nullptr; r = r->next) {
    if (!r->active.load(std::memory_order_acquire)) {
      for (Slot& s : r->slots) s.seq.store(0, std::memory_order_relaxed);
      r->head.store(0, std::memory_order_relaxed);
      r->tid = next_tid_++;
      r->active.store(true, std::memory_order_release);
      return r;
    }
  }
  auto* r = new ThreadRing();
  r->tid = next_tid_++;
  r->active.store(true, std::memory_order_relaxed);
  // Publish: next is set before the release store, so list traversal from
  // the head sees a fully formed node (signal handlers included).
  r->next = all_rings_.load(std::memory_order_relaxed);
  all_rings_.store(r, std::memory_order_release);
  return r;
}

// --- writers ----------------------------------------------------------------

void FlightRecorder::Emit(TraceEventType type, std::uint64_t ts_ns,
                          std::uint64_t dur_ns, std::uint64_t arg0,
                          std::uint64_t arg1) {
  FlightRecorder& fr = Global();
  if (!fr.enabled_.load(std::memory_order_relaxed)) return;
  ThreadRing* r = LocalRing();
  const std::uint64_t h = r->head.load(std::memory_order_relaxed);
  Slot& s = r->slots[h & (kRingSlots - 1)];
  // Seqlock write: odd marks the slot in progress (readers of the evicted
  // generation bail), payload stores are relaxed behind a release fence,
  // the final even seq publishes generation h.
  s.seq.store(2 * h + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.ts.store(ts_ns, std::memory_order_relaxed);
  s.dur.store(dur_ns, std::memory_order_relaxed);
  s.arg0.store(arg0, std::memory_order_relaxed);
  s.arg1.store(arg1, std::memory_order_relaxed);
  s.meta.store(static_cast<std::uint64_t>(type) |
                   (static_cast<std::uint64_t>(internal::t_trace_site) << 16),
               std::memory_order_relaxed);
  s.seq.store(2 * (h + 1), std::memory_order_release);
  r->head.store(h + 1, std::memory_order_release);
  if (h >= kRingSlots) {
    fr.dropped_total_.fetch_add(1, std::memory_order_relaxed);
  }
}

// --- readers ----------------------------------------------------------------

void FlightRecorder::CollectRing(const ThreadRing& ring,
                                 std::size_t max_events,
                                 std::vector<CollectedEvent>* out) const {
  const std::uint64_t head = ring.head.load(std::memory_order_acquire);
  const std::uint64_t window =
      std::min<std::uint64_t>(head, std::min(max_events, kRingSlots));
  for (std::uint64_t e = head - window; e < head; ++e) {
    const Slot& s = ring.slots[e & (kRingSlots - 1)];
    // Seqlock read: accept only if both seq loads agree on generation e.
    // A concurrent writer (odd seq, or a newer generation) means the slot
    // was recycled under us — skip it, never surface torn fields.
    const std::uint64_t expected = 2 * (e + 1);
    const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
    if (s1 != expected) continue;
    CollectedEvent ev;
    ev.ts_ns = s.ts.load(std::memory_order_relaxed);
    ev.dur_ns = s.dur.load(std::memory_order_relaxed);
    ev.arg0 = s.arg0.load(std::memory_order_relaxed);
    ev.arg1 = s.arg1.load(std::memory_order_relaxed);
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != expected) continue;
    const std::uint64_t type = meta & 0xffff;
    if (type == 0 || type >= kNumTraceEventTypes) continue;
    ev.type = static_cast<TraceEventType>(type);
    const std::uint64_t site = (meta >> 16) & 0xffff;
    ev.site = site < kNumTraceSites ? static_cast<TraceSite>(site)
                                    : TraceSite::kUnknown;
    ev.tid = ring.tid;
    out->push_back(ev);
  }
}

std::vector<CollectedEvent> FlightRecorder::Collect() const {
  std::vector<CollectedEvent> out;
  for (const ThreadRing* r = all_rings_.load(std::memory_order_acquire);
       r != nullptr; r = r->next) {
    CollectRing(*r, kRingSlots, &out);
  }
  return out;
}

std::string FlightRecorder::ExportChromeTraceJson() const {
  std::vector<CollectedEvent> events = Collect();
  // Perfetto renders per-track; sort (tid, ts) so each thread's track is
  // monotonic regardless of when span-style events were emitted.
  std::sort(events.begin(), events.end(),
            [](const CollectedEvent& a, const CollectedEvent& b) {
              return a.tid != b.tid ? a.tid < b.tid : a.ts_ns < b.ts_ns;
            });

  std::string json;
  json.reserve(events.size() * 160 + 256);
  json += "{\"traceEvents\":[\n";
  char line[512];

  std::uint32_t last_tid = 0;
  bool first = true;
  auto append_line = [&](const char* text) {
    if (!first) json += ",\n";
    first = false;
    json += text;
  };

  for (const CollectedEvent& ev : events) {
    if (ev.tid != last_tid) {
      last_tid = ev.tid;
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":%" PRIu32
                    ",\"args\":{\"name\":\"plp-thread-%" PRIu32 "\"}}",
                    ev.tid, ev.tid);
      append_line(line);
    }
    const TypeDesc& desc = kTypeDesc[static_cast<std::size_t>(ev.type)];
    // Timestamps are microseconds (double); keep nanosecond precision.
    const double ts_us = static_cast<double>(ev.ts_ns) / 1000.0;
    const double dur_us = static_cast<double>(ev.dur_ns) / 1000.0;
    char args[224];
    switch (ev.type) {
      case TraceEventType::kLatchWait:
        std::snprintf(args, sizeof(args),
                      "{\"site\":\"%s\",\"page_class\":\"%s\",\"wait_ns\":%"
                      PRIu64 "}",
                      TraceSiteName(ev.site),
                      PageClassName(static_cast<PageClass>(
                          ev.arg1 < static_cast<std::uint64_t>(kNumPageClasses)
                              ? ev.arg1
                              : 0)),
                      ev.arg0);
        break;
      case TraceEventType::kCsWait:
        std::snprintf(args, sizeof(args),
                      "{\"site\":\"%s\",\"category\":\"%s\",\"wait_ns\":%"
                      PRIu64 "}",
                      TraceSiteName(ev.site),
                      CsCategoryName(static_cast<CsCategory>(
                          ev.arg1 < static_cast<std::uint64_t>(
                                        kNumCsCategories)
                              ? ev.arg1
                              : 7)),
                      ev.arg0);
        break;
      case TraceEventType::kLockWait:
        std::snprintf(args, sizeof(args),
                      "{\"wait_ns\":%" PRIu64 ",\"granted\":%" PRIu64 "}",
                      ev.arg0, ev.arg1);
        break;
      case TraceEventType::kWalFsync:
        std::snprintf(args, sizeof(args),
                      "{\"batch_bytes\":%" PRIu64 ",\"lsn\":%" PRIu64 "}",
                      ev.arg0, ev.arg1);
        break;
      case TraceEventType::kBufMissStall:
      case TraceEventType::kEvictWriteback:
        std::snprintf(args, sizeof(args),
                      "{\"page\":%" PRIu64 ",\"site\":\"%s\"}", ev.arg0,
                      TraceSiteName(ev.site));
        break;
      case TraceEventType::kPartitionPhase:
        std::snprintf(args, sizeof(args),
                      "{\"phase\":%" PRIu64 ",\"actions\":%" PRIu64 "}",
                      ev.arg0, ev.arg1);
        break;
      case TraceEventType::kCheckpoint:
        std::snprintf(args, sizeof(args), "{\"payload_bytes\":%" PRIu64 "}",
                      ev.arg0);
        break;
      case TraceEventType::kRecovery:
        std::snprintf(args, sizeof(args),
                      "{\"redo_ops\":%" PRIu64 ",\"undo_ops\":%" PRIu64 "}",
                      ev.arg0, ev.arg1);
        break;
      default:
        std::snprintf(args, sizeof(args),
                      "{\"a0\":%" PRIu64 ",\"a1\":%" PRIu64 "}", ev.arg0,
                      ev.arg1);
        break;
    }
    if (desc.phase == 'X') {
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%" PRIu32
                    ",\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}",
                    desc.name, desc.cat, ev.tid, ts_us, dur_us, args);
    } else {
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                    "\"pid\":1,\"tid\":%" PRIu32 ",\"ts\":%.3f,\"args\":%s}",
                    desc.name, desc.cat, ev.tid, ts_us, args);
    }
    append_line(line);
  }

  std::snprintf(line, sizeof(line),
                "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                "\"dropped_events\":%" PRIu64 "}}\n",
                dropped_events());
  json += line;
  return json;
}

Status FlightRecorder::ExportChromeTrace(const std::string& path) const {
  const std::string json = ExportChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace file " + path);
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok) return Status::Internal("short write to trace file " + path);
  return Status::OK();
}

// --- black box --------------------------------------------------------------

void FlightRecorder::DumpBlackBox(int fd, std::size_t per_thread) const {
  FdWriteStr(fd, "=== PLP FLIGHT RECORDER BLACK BOX ===\n");
  FdWriteStr(fd, "dropped_events=");
  FdWriteU64(fd, dropped_events());
  FdWriteStr(fd, "\n");
  for (const ThreadRing* r = all_rings_.load(std::memory_order_acquire);
       r != nullptr; r = r->next) {
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    if (head == 0) continue;
    const std::uint64_t window = std::min<std::uint64_t>(
        head, std::min(per_thread, kRingSlots));
    FdWriteStr(fd, "-- thread ");
    FdWriteU64(fd, r->tid);
    FdWriteStr(fd, " (last ");
    FdWriteU64(fd, window);
    FdWriteStr(fd, " of ");
    FdWriteU64(fd, head);
    FdWriteStr(fd, " events) --\n");
    for (std::uint64_t e = head - window; e < head; ++e) {
      const Slot& s = r->slots[e & (kRingSlots - 1)];
      const std::uint64_t expected = 2 * (e + 1);
      if (s.seq.load(std::memory_order_acquire) != expected) continue;
      const std::uint64_t ts = s.ts.load(std::memory_order_relaxed);
      const std::uint64_t dur = s.dur.load(std::memory_order_relaxed);
      const std::uint64_t a0 = s.arg0.load(std::memory_order_relaxed);
      const std::uint64_t a1 = s.arg1.load(std::memory_order_relaxed);
      const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != expected) continue;
      const std::uint64_t type = meta & 0xffff;
      if (type == 0 || type >= kNumTraceEventTypes) continue;
      FdWriteStr(fd, "  ts=");
      FdWriteU64(fd, ts);
      FdWriteStr(fd, " dur_ns=");
      FdWriteU64(fd, dur);
      FdWriteStr(fd, " ");
      FdWriteStr(fd, kTypeDesc[type].name);
      const std::uint64_t site = (meta >> 16) & 0xffff;
      if (site != 0 && site < kNumTraceSites) {
        FdWriteStr(fd, " site=");
        FdWriteStr(fd, TraceSiteName(static_cast<TraceSite>(site)));
      }
      FdWriteStr(fd, " a0=");
      FdWriteU64(fd, a0);
      FdWriteStr(fd, " a1=");
      FdWriteU64(fd, a1);
      FdWriteStr(fd, "\n");
    }
  }
  FdWriteStr(fd, "=== END BLACK BOX ===\n");
}

void FlightRecorder::InstallCrashHandlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    Global();  // ensure g_recorder is set before any handler can fire
    const int signals[] = {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT};
    for (const int sig : signals) {
      struct sigaction old {};
      if (::sigaction(sig, nullptr, &old) != 0) continue;
      // Leave non-default dispositions alone: sanitizers and death-test
      // harnesses own those signals; clobbering them loses their reports.
      if (old.sa_handler != SIG_DFL || (old.sa_flags & SA_SIGINFO) != 0) {
        continue;
      }
      struct sigaction sa {};
      sa.sa_handler = &CrashDumpHandler;
      sigemptyset(&sa.sa_mask);
      sa.sa_flags = SA_RESETHAND | SA_NODEFER;
      ::sigaction(sig, &sa, nullptr);
    }
  });
}

void FlightRecorder::ResetForTest() {
  dropped_total_.store(0, std::memory_order_relaxed);
  for (ThreadRing* r = all_rings_.load(std::memory_order_acquire);
       r != nullptr; r = r->next) {
    for (Slot& s : r->slots) s.seq.store(0, std::memory_order_relaxed);
    r->head.store(0, std::memory_order_relaxed);
  }
}

}  // namespace plp
