(** The fleet scaling benchmark: N independent guest-VM simulations
    sharded across a domain pool.

    This is the shared core behind [bench fleet], the repository
    benchmark and the fleet determinism tests: all of them call
    {!run_stream}, so the benchmark and the test exercise exactly the
    same code path. Each VM job boots a fresh protected stack
    ([Engine.run] under [Fidelius_enc]) inside its own trace recording,
    so every VM produces a result row plus its own trace shard, merged
    in canonical VM order.

    {2 Determinism contract}

    Everything here except wall-clock timing is a pure function of
    [(vms)]: VM [k] always runs profile [profiles.(k mod |profiles|)]
    with {!Engine.seed_of}-derived seeds, on a freshly reset machine, in
    a freshly reset recording. The CSV and trace bytes {!run_stream}
    writes are therefore identical for any [domains] value — the
    property the fleet tests pin, together with the digests of those
    bytes. Wall-clock throughput (VMs/sec) is measured by the
    {e caller} around {!run_stream}; it is the only nondeterministic
    quantity and never appears in the merged artifacts.

    {2 Arenas and streaming}

    Worker domains own reusable {!arena}s (DRAM backing, trace ring,
    serialization buffer). Each VM's Chrome events are written straight
    into the arena's buffer ([Trace.chrome_event_into], no JSON tree per
    event) and spilled to its worker's one spill file as the job
    completes; the spills are concatenated in worker order, which is
    canonical job order. Peak memory stays bounded by
    [workers × arena] plus the row list, not [vms × trace]. *)

type vm_row = {
  vm : int;                        (** canonical job index, [0 .. vms-1] *)
  profile : string;                (** workload profile name *)
  cycles : int;                    (** extrapolated total simulated cycles *)
  per_access : float;              (** sampled cycles per 64-byte access *)
  per_exit : float;                (** sampled cycles per hypervisor round trip *)
  events : int;                    (** trace entries the VM's recording recorded *)
}

type t = {
  rows : vm_row list;              (** one per VM, canonical order *)
  shards : (string * Fidelius_obs.Trace.entry list) list;
      (** per-VM trace shards; nothing in the library fills them *)
}
(** A fleet's rows, for {!csv}. Kept only because the benchmark's
    per-layer replay renders its CSV as [csv { rows; shards = [] }];
    {!run_stream} itself writes the CSV from its rows directly. *)

type arena = {
  mem : Fidelius_hw.Physmem.t;
      (** reusable DRAM backing ([Machine.default_nr_frames] pages),
          zeroed per job by [Machine.create ?mem] *)
  ring : Fidelius_obs.Trace.ring;
      (** reusable trace ring, reset per job by [Trace.record_into] *)
  jbuf : Buffer.t;
      (** trace spill buffer: {!run_stream} writes each VM's Chrome events
          into it and moves them to the worker's spill in 64 KiB blocks,
          so it stays about one block long; empty between jobs *)
}
(** Everything a VM job reuses across jobs on one worker. Ownership rule
    (SCALING.md): an arena belongs to exactly one worker domain; jobs on
    that worker run sequentially, so no lock is needed — sharing an
    arena across workers is a data race. Reuse is invisible in results:
    each reused piece is reset to its fresh state before the next job
    reads it. *)

val arena : unit -> arena
(** A fresh arena (~32 MiB of page backing + a 64k-slot ring). Allocate
    once per worker — per job would reintroduce exactly the churn the
    arena exists to kill. *)

type gc_stats = {
  worker : int;           (** worker-domain index, [0 .. Pool.workers - 1] *)
  jobs : int;             (** VM jobs this worker completed *)
  minor_words : float;    (** words allocated on this worker's minor heap *)
  promoted_words : float; (** of those, words that survived into the major heap *)
  major_words : float;    (** words allocated directly on the major heap *)
  minor_collections : int;  (** minor GCs (each a stop-the-world rendezvous
                                across {e all} running domains on OCaml 5) *)
  major_collections : int;  (** major cycles completed *)
}
(** One worker domain's GC/allocation delta across its whole job run,
    measured from [Pool.map_with]'s [init] to its [finish], both on the
    worker domain. The three word counts come from [Gc.counters], which
    on OCaml 5 reads the calling domain's own allocation, so they sum
    across workers to the process total. [Gc.quick_stat] is not used for
    them because it sums every domain's words, which would credit each
    worker with its neighbours' allocation. The two collection counts do
    come from [Gc.quick_stat]: an OCaml 5 minor GC is a stop-the-world
    rendezvous of all running domains and a major cycle spans the shared
    heap, so a collection is a process-wide event that every concurrent
    worker sees and pays for. *)

type summary = {
  vm_rows : vm_row list;  (** one per VM, canonical order *)
  gc : gc_stats list;     (** one per worker domain, worker order *)
}

val run_stream :
  ?domains:int -> ?vms:int -> csv:string -> trace:string -> unit -> summary
(** [run_stream ~csv ~trace ()] boots and measures [vms] (default 16)
    protected VMs across [domains] (default
    [Fidelius_fleet.Pool.recommended_domains ()]) worker domains. Worker
    [w] reuses one {!arena} for all its jobs and appends each finished
    VM's serialized Chrome events to its one spill file (in a
    [<trace>.spill] directory, removed on success), opened in
    [Pool.map_with]'s [init] and closed in its [finish]. After the pool
    joins, [csv] is written from the returned rows with the rendering
    {!csv} uses, and [trace] is the spills concatenated in worker order
    between [Merge.chrome_header] and [Merge.chrome_footer], plus a
    trailing newline: one Chrome document in which VM [k] is
    [pid = k + 1], named ["vm<k>:<profile>"] by a [process_name] row,
    with timestamps in simulated cycles. Both files are byte-identical at
    every domain count. Peak live heap is [workers × arena] plus the
    (tiny) row list; no VM's trace entries survive its own job.

    The returned {!summary} carries the canonical rows plus one
    {!gc_stats} per worker — the [--gc-stats] diagnosis data.

    Raises [Invalid_argument] if [vms < 0] or [domains < 1], and
    [Pool.Job_failed] if a VM job raises; on failure the spill directory
    may be left behind (its files are truncated and reused by the next
    call). Not re-entrant on the same output paths: two concurrent
    streams would race on the spill directory. *)

val csv_header : string
(** First line of {!csv} / the [csv] file {!run_stream} writes. *)

val csv : t -> string
(** The per-VM result table:
    [vm,profile,cycles,per_access_cycles,per_exit_cycles,trace_events].
    Cycle columns are simulated cycles ([per_*] to 2 decimal places) —
    no wall time, so bytes are domain-count-independent. *)
