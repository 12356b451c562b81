// Span recorder for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own files, around its calls
// into the runtime's public API and around its own task bodies; nothing
// inside src/ is instrumented. Each thread appends completed spans to its
// own preallocated buffer (no locks on the recording path); a full buffer
// drops the span and counts it. Buffers are read only after every
// recording thread has quiesced (runtime stopped, clients joined).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The layers a span is attributed to — this repository's modules as seen
/// from their public entry points.
enum class layer : std::uint8_t { core, session, workloads };
constexpr const char* layer_names[] = {"core", "core.session", "workloads"};
constexpr unsigned n_layers = 3;

enum class span_name : std::uint8_t {
  ctor,            // core::runtime construction
  open_session,    // runtime::open_session
  submit,          // user_thread::submit (window backpressure included)
  drain,           // user_thread::drain at the end of the window
  probe,           // user_thread::submit_single of a latency probe
  session_read,    // session::submit_read_keyed
  session_write,   // session::submit_keyed
  ticket_wait,     // ticket::wait
  stop,            // runtime::stop
  body,            // one incarnation of a benchmark task closure
};
constexpr const char* span_names[] = {"ctor",         "open_session",  "submit",
                                      "drain",        "probe",         "session_read",
                                      "session_write", "ticket_wait",  "stop",
                                      "body"};

struct span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< id of the span that caused this one; 0 = root
  std::uint64_t req = 0;     ///< request id: task serial, tx or request index
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t weight = 1;  ///< sampling factor: spans of 1-in-N requests carry N
  span_name name = span_name::ctor;
  layer lay = layer::core;
  bool aborted = false;  ///< body left by an exception (a rolled-back incarnation)
};

class tracer {
 public:
  static tracer& get() {
    static tracer t;
    return t;
  }

  /// Call before any recording thread starts (thread creation then orders
  /// the capacity store before every buffer allocation).
  void enable(std::size_t per_thread_capacity) {
    capacity_ = per_thread_capacity;
    on_.store(true, std::memory_order_release);
  }
  bool on() const noexcept { return on_.load(std::memory_order_relaxed); }

  /// Fresh span id of the calling thread (unique across threads).
  std::uint64_t next_id() { return (buf().index << 40) | ++buf().next_local; }

  /// Id of the innermost open span of the calling thread (0 if none).
  std::uint64_t current() { return buf().current; }
  void set_current(std::uint64_t id) { buf().current = id; }

  void record(const span& s) {
    thread_buffer& b = buf();
    if (b.spans.size() < b.spans.capacity()) {
      b.spans.push_back(s);
    } else {
      b.dropped++;
    }
  }

  /// All recorded spans plus the drop count. Quiesce every recording
  /// thread first.
  std::vector<span> collect(std::uint64_t& dropped) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<span> out;
    dropped = 0;
    for (const auto& b : buffers_) {
      out.insert(out.end(), b->spans.begin(), b->spans.end());
      dropped += b->dropped;
    }
    return out;
  }

 private:
  struct thread_buffer {
    std::uint64_t index = 0;
    std::uint64_t next_local = 0;
    std::uint64_t current = 0;
    std::uint64_t dropped = 0;
    std::vector<span> spans;
  };

  thread_buffer& buf() {
    thread_local thread_buffer* tl = nullptr;
    if (tl == nullptr) {
      auto b = std::make_unique<thread_buffer>();
      b->spans.reserve(capacity_);
      std::lock_guard<std::mutex> lk(mu_);
      b->index = buffers_.size() + 1;
      tl = b.get();
      buffers_.push_back(std::move(b));
    }
    return *tl;
  }

  std::atomic<bool> on_{false};
  std::size_t capacity_ = 0;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<thread_buffer>> buffers_;  // guarded by mu_
};

/// RAII span. Inactive (two loads, no clock reads) unless tracing is on and
/// `sampled` holds. `parent` 0 means "the calling thread's open span";
/// cross-thread causes (a submit span causing a task body on a worker) are
/// passed explicitly.
class scope {
 public:
  scope(span_name name, layer lay, std::uint64_t req, bool sampled,
        std::uint32_t weight = 1, std::uint64_t parent = 0) {
    tracer& t = tracer::get();
    if (!sampled || !t.on()) return;
    active_ = true;
    s_.id = t.next_id();
    s_.parent = parent != 0 ? parent : t.current();
    s_.req = req;
    s_.weight = weight;
    s_.name = name;
    s_.lay = lay;
    saved_current_ = t.current();
    t.set_current(s_.id);
    uncaught_ = std::uncaught_exceptions();
    s_.start_ns = now_ns();
  }
  ~scope() {
    if (!active_) return;
    s_.end_ns = now_ns();
    s_.aborted = std::uncaught_exceptions() > uncaught_;
    tracer& t = tracer::get();
    t.set_current(saved_current_);
    t.record(s_);
  }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

  /// 0 when inactive, so children fall back to their own thread's parent.
  std::uint64_t id() const noexcept { return active_ ? s_.id : 0; }

 private:
  span s_;
  bool active_ = false;
  int uncaught_ = 0;
  std::uint64_t saved_current_ = 0;
};

}  // namespace perfbench
