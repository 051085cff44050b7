#pragma once
/// \file trace.h
/// \brief Distributed tracing (`ebmf::obs`): 128-bit trace contexts carried
/// on the wire, per-request span recorders, and a bounded trace store.
///
/// A trace follows one request end-to-end: client → router → backend →
/// engine. The context travels as an optional `"trace"` member of the
/// request JSON (`{"id":"<32 hex>","span":"<16 hex>"}` — the id names the
/// trace, the span names the sender's enclosing span so receiver spans
/// parent correctly across the process boundary). Responses carry the
/// spans the responder recorded (`"trace":{"id":...,"spans":[...]}`), so
/// the router folds backend spans into its own recorder and the completed
/// trace — queryable via `{"op":"trace","id":...}` — explains the request
/// across processes.
///
/// Ids are rendered as fixed-width lowercase hex strings on the wire
/// because the JSON layer stores numbers as doubles (53-bit exact range);
/// 64-bit span ids would silently round.
///
/// Span timestamps are microseconds on the recording process's steady
/// clock. Clocks are not synchronized across processes — consumers compare
/// durations and within-process ordering, never cross-process start times.
///
/// Spans are recorded through one scope, obs::Phase (obs/phase.h), which
/// feeds a stage's span, report timing and histogram from one pair of
/// clock reads. Each tier ends a request with the shared close-out
/// (service::net::RequestLog): it closes the root span, splices the spans
/// into the reply, and publishes the trace to the tier's TraceStore.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ebmf::io::json {
class Value;
}

namespace ebmf::obs {

/// The propagated part of a trace: which trace this request belongs to and
/// which remote span is the parent of whatever the receiver records.
struct TraceContext {
  std::uint64_t hi = 0;           ///< Trace id, high 64 bits.
  std::uint64_t lo = 0;           ///< Trace id, low 64 bits.
  std::uint64_t parent_span = 0;  ///< Sender's enclosing span id (0 = root).

  [[nodiscard]] bool valid() const noexcept { return (hi | lo) != 0; }
};

/// A completed, named interval attributed to one trace.
struct Span {
  std::string name;               ///< e.g. "router.dispatch", "server.solve".
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;    ///< 0 = a root within its process.
  std::uint64_t start_us = 0;     ///< Steady-clock micros (process-local).
  std::uint64_t dur_us = 0;
};

/// Microseconds on the monotonic clock (the span timestamp base).
[[nodiscard]] std::uint64_t steady_micros();

/// A fresh trace context: random nonzero 128-bit id, no parent span.
[[nodiscard]] TraceContext make_trace_context();

/// A fresh span id, unique within this process and salted per process so
/// router and backend ids never collide inside one trace.
[[nodiscard]] std::uint64_t new_span_id();

/// 32-hex-digit trace id / 16-hex-digit span id rendering and parsing.
[[nodiscard]] std::string trace_id_hex(std::uint64_t hi, std::uint64_t lo);
[[nodiscard]] std::string span_id_hex(std::uint64_t id);
bool parse_trace_id(const std::string& hex, std::uint64_t* hi,
                    std::uint64_t* lo);
bool parse_span_id(const std::string& hex, std::uint64_t* id);

/// Collects the spans of one in-flight traced request. Shared by pointer
/// between the connection handler and the engine; thread-safe (solve
/// batches fan out across the request pool).
class TraceRecorder {
 public:
  explicit TraceRecorder(const TraceContext& ctx);

  [[nodiscard]] const TraceContext& context() const noexcept { return ctx_; }

  /// Record a completed interval; returns `span_id` for parenting children.
  std::uint64_t record(const std::string& name, std::uint64_t span_id,
                       std::uint64_t parent_id, std::uint64_t start_us,
                       std::uint64_t end_us);

  /// Fold spans a downstream process returned (router ← backend).
  void adopt(std::vector<Span> spans);

  /// Move out everything recorded so far; later records start a new batch
  /// (the spans a request records after its reply was published).
  [[nodiscard]] std::vector<Span> take();

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
  TraceContext ctx_;
};

using TracePtr = std::shared_ptr<TraceRecorder>;

/// Bounded ring of completed traces (FIFO eviction by trace), with an
/// optional JSON-lines file sink. One per server/router process.
class TraceStore {
 public:
  explicit TraceStore(std::size_t capacity = 128);
  ~TraceStore();
  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;

  /// Append completed traces to `path` as JSON lines
  /// (`{"trace":"<id>","spans":[...]}`). False + `error` if it can't open.
  /// The sink is size-rotated (`path` → `path.1`, two generations kept —
  /// support/logrotate.h), so a long-lived server's trace file is bounded.
  bool set_file(const std::string& path, std::string* error);

  /// Flush the file sink (drain hook); no-op without one.
  void flush();

  /// Add spans under a trace id: merges into the existing entry or starts a
  /// new one, evicting the oldest trace past capacity.
  void add(std::uint64_t hi, std::uint64_t lo, std::vector<Span> spans);

  /// All spans of one trace (empty when unknown/evicted).
  [[nodiscard]] std::vector<Span> find(std::uint64_t hi,
                                       std::uint64_t lo) const;

  struct Summary {
    std::string id;        ///< 32-hex trace id.
    std::string root;      ///< Name of the first root span.
    std::uint64_t dur_us = 0;  ///< Root span duration.
    std::size_t spans = 0;
  };
  /// Most recent `n` traces, newest first.
  [[nodiscard]] std::vector<Summary> recent(std::size_t n) const;

  [[nodiscard]] std::size_t size() const;

 private:
  struct Impl;
  Impl* impl_;
};

// ---- wire rendering / parsing ---------------------------------------------

/// `{"id":"<32 hex>","span":"<16 hex>"}` — the request-side context member.
[[nodiscard]] std::string trace_context_json(const TraceContext& ctx);

/// Parse a request's `"trace"` member; false when absent/malformed.
bool parse_trace_context(const io::json::Value& value, TraceContext* out);

/// `[{"name":...,"span":"hex","parent":"hex","start_us":N,"dur_us":N},...]`.
[[nodiscard]] std::string spans_json(const std::vector<Span>& spans);

/// Parse a spans array rendered by spans_json (tolerates missing parents).
[[nodiscard]] std::vector<Span> spans_from_json(const io::json::Value& array);

/// The `{"op":"trace","id":...}` reply body: flat spans plus the assembled
/// tree (`children` nested, ordered by start time; roots are spans whose
/// parent is absent from the set).
[[nodiscard]] std::string trace_tree_json(const std::string& id_hex,
                                          const std::vector<Span>& spans);

}  // namespace ebmf::obs
