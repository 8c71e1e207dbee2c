(** Deterministic merging of per-shard fleet results.

    Every merge in this module folds its input {e in the order given} —
    callers pass shard results in canonical job order (what
    {!Pool.map} returns), so merged output is byte-identical for any
    domain count. Nothing here reads domain-local state; all inputs are
    plain values handed over by finished shards. *)

val process_meta : pid:int -> string -> Fidelius_obs.Json.t
(** The Chrome [process_name] metadata event that names shard row [pid]
    — the first object every shard contributes to the [traceEvents]
    array. Exposed so the streaming path ({!chrome_header} et al.)
    serializes exactly the object {!chrome_of_shards} would have built;
    deterministic in its inputs. *)

val chrome_header : string
(** The bytes of a Chrome trace document up to (and including) the
    opening of the [traceEvents] array. A streamed document is
    [chrome_header ^ fragments ^ chrome_footer ~shards] where the
    fragments are comma-joined serialized events — byte-identical to
    [Json.to_string (chrome_of_shards ...)] for the same shards, which is
    the whole point: spill files can be concatenated without re-parsing.
    Pinned against {!chrome_of_shards} by the spill-merge tests. *)

val chrome_footer : shards:(string * int) list -> string
(** Closes the [traceEvents] array and appends the [displayTimeUnit] and
    [otherData] sections for the given per-shard [(label, event count)]
    listing, in listing order. See {!chrome_header}. *)

val concat_spills : out:string -> ?header:string -> ?footer:string -> string list -> unit
(** [concat_spills ~out ~header ~footer paths] writes [header], then the
    raw bytes of every spill file in {e list order}, then [footer], to
    [out] — streaming in 64 KiB blocks, so peak memory is independent of
    the spill sizes (the bounded-RSS half of the 1,000-VM fleet story).
    Determinism is inherited from the inputs: callers pass spill paths in
    worker order, each spill was written by exactly one worker in
    canonical job order, and workers own contiguous, in-order job ranges
    ([Pool.ranges]), so worker order is canonical job order. No
    separators are inserted — writers embed their own (the fleet's chrome
    spills carry a leading comma on every job fragment after the global
    first). Raises [Sys_error] if
    any file cannot be opened; [out] is closed (possibly truncated) on
    any failure, never left dangling. *)

val chrome_of_shards :
  (string * Fidelius_obs.Trace.entry list) list -> Fidelius_obs.Json.t
(** [chrome_of_shards [(label0, entries0); ...]] renders the shards'
    captures as one Chrome [trace_event] document in which shard [k]
    appears as its own process row: [pid = k + 1], named [label_k] via a
    [process_name] metadata event. Event order inside a shard is the
    shard's own emission order; shards appear in list order, so the
    document's bytes depend only on the input, not on how many domains
    produced it. [otherData] carries the shard count and per-shard event
    counts (label order preserved). *)

val csv : header:string -> (string list) list -> string
(** [csv ~header rows] assembles per-shard row groups into one CSV
    string, header first, then every shard's rows in shard order,
    ["\n"]-terminated. Purely concatenation — no reordering, no
    formatting — so shards keep full control of their cells. *)
