(** Monitor-wide observability: structured tracing, metrics, profiling.

    A zero-dependency, process-global facility (the same idiom as
    {!Fault}): instrumented layers — API dispatch, captree transactions,
    both backends' hardware writes, the WAL, the key pool — record into
    it without threading a handle, and {!report}/{!events} expose the
    result to [Monitor.observe], the CLI and the benchmarks.

    Three pieces:

    - fixed-size ring buffers of structured {!event}s (span begin/end
      with monotonic cycle stamps, domain id, op kind, backend). Each
      OCaml Domain writes its own ring (domain-local storage), so
      concurrent emitters — the sharded monitor's worker Domains —
      never contend or tear; readers merge the rings by
      [(stamp, ring, seq)] into one causal view. Within a ring the
      writer is single and index-based, plain column arrays — no locks
      and no allocation on the emit path; when a ring wraps, the
      oldest events are overwritten and {!events} drops any span-end
      whose begin was overwritten so readers never see half a pair;
    - a typed metrics registry ({!Metrics}): counters, gauges, and
      histograms with log2-bucketed values (latencies in simulated
      cycles);
    - a {!Profile} wrapper that brackets an operation in a balanced
      span — the end event and the latency observation are emitted from
      an exception-safe [finally], so a fault tripping mid-span can
      never leave the accounting unbalanced.

    Everything here is observation only: with tracing disabled the hot
    path is one branch, and nothing in this module ever raises into the
    instrumented code. *)

type kind = Span_begin | Span_end | Instant

type event = {
  seq : int;  (** Monotonic per-event sequence number (0-based). *)
  stamp : int;  (** Clock reading at emit (simulated cycles). *)
  kind : kind;
  op : string;  (** Operation kind, e.g. ["api.share"], ["wal.append"]. *)
  span : int;  (** Span id pairing begin/end; 0 for instants. *)
  domain : int;  (** Acting domain id; -1 when not attributable. *)
  backend : string;  (** Backend name; [""] when not backend-specific. *)
  trace : int;  (** Causal trace id (see {!new_trace}); 0 = none. *)
}

(** {2 Global switches} *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Default: enabled. Disabling stops all recording (events, metrics,
    per-domain counts); already-recorded data is kept. *)

val set_clock : (unit -> int) -> unit
(** Source of {!event.stamp} and span latencies. [Monitor.boot] points
    it at the machine's simulated cycle counter; the default is an
    internal monotonic tick. *)

val configure : ?capacity:int -> unit -> unit
(** Resize the ring (default 4096 events, rounded up to a power of
    two) and clear it. Metrics are unaffected. *)

val reset : unit -> unit
(** Clear the ring, all metrics, per-domain counts and span/trace
    state. The enabled flag, clock and capacity are kept. *)

(** {2 Recording} *)

val intern : string -> int
(** Intern a name (op or backend) to a small id. The ring stores only
    interned ids, so hot call sites hoist the id once — see
    {!Profile.span_h}. Ids are process-lived and survive {!reset}. *)

val instant : ?domain:int -> ?backend:string -> string -> unit
(** Record a point event (e.g. a fault trip). *)

(** {2 Trace context (cross-monitor causality)} *)

val new_trace : unit -> int
(** Allocate a fresh nonzero trace id. *)

val with_trace : int -> (unit -> 'a) -> 'a
(** Run [f] with the given trace id attached to every event it emits
    (exception-safe; restores the previous context). *)

val current_trace : unit -> int
(** The active trace id, 0 when none. *)

(** {2 Metrics registry} *)

module Metrics : sig
  type counter
  type gauge
  type histogram

  val counter : string -> counter
  (** Find-or-create; one instance per name, process-wide. *)

  val incr : ?by:int -> counter -> unit
  val counter_value : string -> int

  val zero_counter : counter -> unit
  (** Reset one handle to 0 (even while recording is disabled). For
      metrics whose registry name outlives the thing measured — e.g.
      per-link fleet counters across endpoint crash-restarts — so a
      recreated owner starts its incarnation at a truthful zero. *)

  val gauge : string -> gauge
  val set_gauge : gauge -> int -> unit

  val zero_gauge : gauge -> unit
  (** Gauge twin of {!zero_counter}. *)

  val histogram : string -> histogram

  val observe : histogram -> int -> unit
  (** Record a sample into its log2 bucket (negative samples clamp
      to 0). *)

  val bucket_of : int -> int
  (** The bucket index a value lands in: 0 for [v <= 0], otherwise the
      bit length of [v] — so bucket [i >= 1] holds
      [2^(i-1) .. 2^i - 1]. *)

  val bucket_bounds : int -> int * int
  (** Inclusive [(lo, hi)] of a bucket index. Bucket 0 is [(0, 0)]. *)

  val histogram_count : string -> int
  val histogram_sum : string -> int
  val histogram_max : string -> int

  val percentile : string -> float -> int option
  (** Upper bound of the bucket containing the p-quantile sample
      ([p] in [0,1]); [None] when the histogram is empty or absent. *)

  val counters : unit -> (string * int) list
  (** All counters, sorted by name. *)

  val gauges : unit -> (string * int) list
end

(** {2 Profiling} *)

module Profile : sig
  val span : ?domain:int -> ?backend:string -> string -> (unit -> 'a) -> 'a
  (** [span op f] emits a begin event, runs [f], and from an
      exception-safe [finally] emits the end event, observes the
      latency into histogram ["lat." ^ op], bumps counter
      ["op." ^ op], and (when [domain >= 0]) the per-domain op count.
      The span stays balanced when [f] raises (e.g. {!Fault.Injected}
      or a store crash) — the exception is re-raised unchanged. *)

  type handle
  (** A pre-resolved op: the latency histogram, op counter and
      per-domain table looked up once. Handles stay valid across
      {!Obs.reset} (the registry zeroes in place), so hot paths hoist
      them to module level and pay no per-span name lookup. *)

  val handle : string -> handle
  (** [handle op] resolves (creating if needed) the stats for [op]. *)

  val span_h : ?domain:int -> ?backend:int -> handle -> (unit -> 'a) -> 'a
  (** Like {!span}, but against a hoisted {!handle} and a pre-interned
      backend id (see {!Obs.intern}; 0 means "no backend") — the fast
      path for per-op instrumentation on journaled and hardware-write
      paths, where the span body is all immediates. *)
end

(** {2 Reading back} *)

val events : unit -> event list
(** Retained events, oldest first. After wraparound, span-end events
    whose begin was overwritten are dropped so every retained pair is
    whole. *)

val written : unit -> int
(** Total events ever recorded (including overwritten ones). *)

val dropped : unit -> int
(** Events lost to wraparound ([written - capacity], floored at 0). *)

val open_spans : unit -> int
(** Spans begun but not yet ended; 0 whenever no instrumented call is
    on the stack. *)

val event_to_json : event -> string
(** One JSON object (a JSON-lines row) per event. *)

val check : unit -> (unit, string) result
(** The self-audit the chaos drivers and the [@coverage] gate run:
    no unbalanced (still-open) spans, event accounting reconciles
    (retained + dropped = written, with orphaned ends only ever caused
    by wraparound), and sequence numbers are strictly increasing. *)

(** {2 Aggregate report (for [Monitor.observe])} *)

type histogram_summary = {
  h_count : int;
  h_sum : int;
  h_max : int;
  h_p50 : int;  (** Bucket upper bounds; 0 when empty. *)
  h_p90 : int;
  h_p99 : int;
}

type report = {
  r_enabled : bool;
  r_written : int;
  r_dropped : int;
  r_open_spans : int;
  r_counters : (string * int) list;
  r_gauges : (string * int) list;
  r_histograms : (string * histogram_summary) list;
  r_domain_ops : (int * (string * int) list) list;
      (** Per-domain op counts, sorted by domain then op. *)
}

val report : unit -> report
val pp_report : Format.formatter -> report -> unit
val report_to_json : report -> string
