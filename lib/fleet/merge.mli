(** Deterministic merging of per-shard fleet results.

    Every merge in this module folds its input {e in the order given} —
    callers pass shard results in canonical job order (what
    {!Pool.map} returns), so merged output is byte-identical for any
    domain count. Nothing here reads domain-local state; all inputs are
    plain values handed over by finished shards. *)

val process_meta : pid:int -> string -> Fidelius_obs.Json.t
(** The Chrome [process_name] metadata event that names shard row [pid]
    — the first object every shard contributes to the [traceEvents]
    array, before its instant events
    ([Fidelius_obs.Trace.chrome_event_into ~pid]). Rendered once per
    shard, so a tree is cheap here; deterministic in its inputs. *)

val chrome_header : string
(** The bytes of a Chrome trace document up to (and including) the
    opening of the [traceEvents] array. A streamed document is
    [chrome_header ^ fragments ^ chrome_footer ~shards], where the
    fragments are the comma-joined serialized events of every shard in
    shard order: one JSON document whose bytes are a concatenation, so
    spill files can be merged without re-parsing. The fleet tests parse
    the result and pin its digests. *)

val chrome_footer : shards:(string * int) list -> string
(** Closes the [traceEvents] array and appends the [displayTimeUnit] and
    [otherData] sections for the given per-shard [(label, event count)]
    listing, in listing order: [otherData] carries the shard count and
    the per-shard event counts. See {!chrome_header}. *)

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

val csv : header:string -> (string list) list -> string
(** [csv ~header rows] assembles per-shard row groups into one CSV
    string, header first, then every shard's rows in shard order,
    ["\n"]-terminated. Purely concatenation — no reordering, no
    formatting — so shards keep full control of their cells. *)
