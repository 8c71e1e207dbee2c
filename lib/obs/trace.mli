(** Bounded, deterministic event trace of the simulated platform.

    Every layer of the stack — memory controller, TLB, hypervisor,
    Fidelius gates, SEV firmware — emits structured events here when
    tracing is enabled. Timestamps are read from the cost ledger (via the
    installed {!set_clock} hook), never from wall time, so two runs with
    the same seed produce byte-identical traces: the determinism contract
    the golden-trace tests pin.

    Events are recorded into a {!ring}: once [capacity] events have been
    recorded the oldest are overwritten and counted in {!ring_dropped}.
    A domain records only while {!record_into} runs; the
    disabled path is one domain-local load — emit sites guard with
    [if Trace.enabled () then Trace.emit ...] so no event is allocated
    when tracing is off.

    {2 Thread-safety: one recording per domain}

    All recording state (ring, clock, scope tag, on/off flag) lives in
    [Domain.DLS]: each domain owns an independent recording, and every
    function in this interface reads or writes only the calling domain's
    state. Fleet shards ([Fidelius_fleet.Pool]) therefore trace
    concurrently without locks and without perturbing one another — a
    worker records each job into its own {!ring} with {!record_into} and
    serializes the entries before the next job reuses the ring. Entries
    themselves are immutable and may be handed freely across domains;
    what must not be shared is a live recording. A freshly spawned domain starts with
    tracing disabled regardless of the spawning domain's state. *)

type event =
  | Vmrun of { domid : int }
  | Vmexit of { domid : int; reason : string }
  | Npf of { domid : int; gfn : int }
  | Hypercall of string
  | Gate of int  (** gate type: 1, 2 or 3 *)
  | Shadow_capture of string  (** exit reason being shadowed *)
  | Shadow_verify of { ok : bool }
  | Fw_cmd of string  (** SEV firmware API command mnemonic *)
  | Dram of { blocks : int; encrypted : bool }
  | Walk of { space : int; vfn : int }  (** page-table walk on TLB miss *)
  | Tlb_flush of { full : bool }
  | Pte_write of { vfn : int }
  | Fault of { site : string; hit : int }
      (** an armed injection site fired; [hit] is the per-site firing
          ordinal (1-based), so traces show exactly which fault landed when *)
  | Mark of string  (** free-form scenario milestone *)

type entry = {
  seq : int;  (** monotonic emission index, 0-based, survives ring wrap *)
  ts : int;  (** ledger cycles at emission time *)
  scope : string;  (** innermost cost scope, "" outside any scope *)
  event : event;
}

val enabled : unit -> bool
(** Whether the calling domain is recording. The cheap guard for emit
    sites: one domain-local load, no allocation. *)

val set_clock : (unit -> int) -> unit
(** Install the timestamp source for the calling domain, typically
    [fun () -> Cost.total machine.ledger]. Timestamps are simulated
    cycles, never wall time — the determinism contract depends on it. *)

val set_scope : string -> unit
(** Set the calling domain's scope tag, which {!emit} stamps on each
    entry. Only [Cost.scope_enter]/[scope_exit] call it, with the ledger's
    innermost scope label ([""] at depth 0). The tag lives outside any
    ring, so a recording started inside a scope tags its events with it. *)

val emit : event -> unit
(** Record one event in the calling domain's ring (a no-op when
    disabled). Timestamped with the installed clock, tagged with the
    current scope tag (see {!set_scope}). *)

(** {2 Recording into rings}

    A {!ring} plus {!record_into} is the only way to record. A fleet
    worker allocates one ring and records each job into it: a fresh
    [capacity]-slot array per job would churn through the major heap —
    exactly the allocation pattern that forces OCaml 5's stop-the-world
    GC rendezvous across domains and flattens the fleet curve. The slot
    array survives across jobs; only counters and clock are reset. *)

type ring
(** A reusable recording, not yet installed on any domain. Owned by
    exactly one worker at a time — installing one ring on two domains
    concurrently is a data race, same rule as any live recording. *)

val ring : ?capacity:int -> unit -> ring
(** A fresh, empty, disabled ring. [capacity] defaults to 65536 entries
    and is fixed for the ring's lifetime. Raises [Invalid_argument] if
    [capacity <= 0]. *)

val ring_capacity : ring -> int
(** The capacity the ring was created with. *)

val record_into : ring -> ?clock:(unit -> int) -> (unit -> 'a) -> 'a
(** [record_into r f] runs [f] recording into the caller-owned ring [r]:
    it resets [r] (counters and clock — {e not} the slot array), enables
    it, installs it as the calling domain's recording, runs [f], and
    restores the previous recording afterwards — whatever the domain had
    active, enabled or not — even on exceptions, which propagate
    unchanged. Recordings therefore nest and never leak state. Entries
    stay in [r] for the caller to read ({!ring_entries}/{!ring_iter})
    until the next [record_into] on it. [clock] defaults to constant 0
    until [f] installs one with {!set_clock}.

    Determinism: because the reset clears everything a previous job could
    have left behind (clock included — a stale neighbour clock never
    stamps the next job's events), the entries recorded for [f] are
    byte-identical to what a fresh ring would have recorded; the qcheck
    arena-reuse property in [test/test_fleet.ml] pins this. Stale
    entries from earlier runs beyond the new run's count are never
    observable: both readers bound themselves by the current counters. *)

val ring_entries : ring -> entry list
(** The ring's recorded entries, oldest first (allocates the list; for
    the zero-copy path use {!ring_iter}). *)

val ring_iter : ring -> (entry -> unit) -> unit
(** [ring_iter r g] applies [g] to each recorded entry, oldest first,
    without allocating a list — the streaming-serialization path: fleet
    workers fold entries straight into a spill buffer. [g] must not
    re-enter the ring (emit into or reset [r]). *)

val ring_length : ring -> int
(** How many entries the ring currently holds:
    [min (ring_emitted r) (ring_capacity r)]. *)

val ring_emitted : ring -> int
(** Total events emitted into the ring during its last [record_into]
    (including any the ring overwrote after wrapping). *)

val ring_dropped : ring -> int
(** How many of those the ring overwrote:
    [max 0 (ring_emitted r - ring_capacity r)]. *)

val ring_reset : ring -> unit
(** Disable the ring and drop its recorded entries (counters and clock
    revert to the fresh state; the slot array is kept for reuse).
    {!record_into} does this implicitly; explicit reset is for releasing
    entry references early without dropping the arena. *)

val event_name : event -> string
(** Stable wire name of the event constructor (e.g. ["tlb-flush"]). *)

val event_args : event -> (string * Json.t) list
(** The event's payload as JSON fields, in declaration order —
    deterministic, so exports are byte-stable. *)

val jsonl_of : entry list -> string
(** Render any entry list (e.g. a ring's {!ring_entries}) as JSONL, one
    [{"seq":N,"ts":N,"scope":S,"name":S,"args":{...}}] object per line. *)

val chrome_event : ?pid:int -> ?tid:int -> entry -> Json.t
(** One Chrome [trace_event] instant-event object. [pid]/[tid] default to
    1; the fleet's merged export gives each shard its own [pid] row. *)

val chrome_of_ring :
  ?attribution:(string * int) list -> ?total_cycles:int -> ring -> Json.t
(** Chrome [trace_event] format for one ring: an object with a
    [traceEvents] array of instant events (timestamps in ledger cycles)
    and an [otherData] section carrying the ring's [emitted]/[dropped]
    counters, the ledger total and the per-scope cycle attribution, so
    viewers and tests can check that attribution sums to the total.
    Single-recording export ([pid] 1 throughout); for the multi-shard
    variant see [Fidelius_fleet.Merge.chrome_of_shards]. *)
