module Hw = Fidelius_hw
module Trace = Fidelius_obs.Trace
module Json = Fidelius_obs.Json
module Pool = Fidelius_fleet.Pool
module Merge = Fidelius_fleet.Merge

type vm_row = {
  vm : int;
  profile : string;
  cycles : int;
  per_access : float;
  per_exit : float;
  events : int;
}

type t = {
  rows : vm_row list;
  shards : (string * Trace.entry list) list;
}

(* The fleet cycles through the full profile catalogue so VM k's workload
   is a pure function of k — no RNG, no wall clock. *)
let profiles = Array.of_list (Spec2006.all @ Parsec.all)

let csv_header = "vm,profile,cycles,per_access_cycles,per_exit_cycles,trace_events"

let csv_row r =
  Printf.sprintf "%d,%s,%d,%.2f,%.2f,%d" r.vm r.profile r.cycles r.per_access r.per_exit
    r.events

let label_of vm = Printf.sprintf "vm%d:%s" vm profiles.(vm mod Array.length profiles).Profile.name

(* --- per-worker arenas -------------------------------------------------- *)

(* Everything a VM job needs that is expensive to allocate and safe to
   reuse: the DRAM backing (32 MiB of pages, reset to zero per job), the
   trace ring (a 64k-slot array, counters reset per job) and the buffer
   the trace goes to the spill through. One arena per worker domain; jobs
   on a worker run sequentially, so ownership is exclusive without a
   lock. VM j's results stay a pure function of j because every reused
   piece is reset to its fresh state before the job reads it — pinned by
   the arena-reuse qcheck property in test/test_fleet.ml. *)
type arena = {
  mem : Hw.Physmem.t;
  ring : Trace.ring;
  jbuf : Buffer.t;
}

(* The trace leaves [jbuf] for the spill once it holds this many bytes,
   so the buffer stays about one block long (it is created with room for
   two) rather than growing to a VM's ~2 MB fragment, which keeps the
   worker's footprint, and so the fleet's peak RSS, low and steady. *)
let spill_block = 65536

let arena () =
  { mem = Hw.Physmem.create ~nr_frames:Hw.Machine.default_nr_frames;
    ring = Trace.ring ();
    jbuf = Buffer.create (2 * spill_block) }

type gc_stats = {
  worker : int;
  jobs : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

(* --- one VM ------------------------------------------------------------- *)

let run_vm a vm =
  let p = profiles.(vm mod Array.length profiles) in
  (* Engine.boot_stack installs the ledger clock into this recording as
     soon as the VM's machine exists, so every event is stamped in the
     VM's own simulated cycles. *)
  let r = Trace.record_into a.ring (fun () -> Engine.run ~mem:a.mem p Engine.Fidelius_enc) in
  { vm;
    profile = p.Profile.name;
    cycles = r.Engine.cycles;
    per_access = r.Engine.per_access;
    per_exit = r.Engine.per_exit;
    events = Trace.ring_length a.ring }

let csv_of_rows rows = Merge.csv ~header:csv_header (List.map (fun r -> [ csv_row r ]) rows)

let csv t = csv_of_rows t.rows

(* --- streaming shard output --------------------------------------------- *)

type summary = {
  vm_rows : vm_row list;
  gc : gc_stats list;
}

(* Per-worker streaming state: the arena plus the worker's one trace
   spill, opened in [init] and closed in [finish] (even when a job
   raised). *)
type stream_state = {
  a : arena;
  spill : out_channel;
  gc0 : Gc.stat;
  words0 : float * float * float;  (* Gc.counters at init, this domain only *)
  mutable njobs_run : int;
}

let spill_path ~dir w = Filename.concat dir (Printf.sprintf "trace-%06d" w)

let mkdir_p dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* Spill one VM's chrome fragment from the ring to [oc]: the
   process_name metadata object, then every entry as an instant event
   with this VM's pid, written straight into [buf]. Fragments after the
   global first carry a leading comma so the final merge is pure byte
   concatenation. [buf] goes out in blocks of [spill_block] bytes and is
   empty again on return. The pid option is built once per VM, not per
   event. *)
let chrome_fragment buf oc ~vm ring =
  if vm > 0 then Buffer.add_char buf ',';
  Json.to_buffer buf (Merge.process_meta ~pid:(vm + 1) (label_of vm));
  let pid = Some (vm + 1) in
  Trace.ring_iter ring (fun e ->
      Buffer.add_char buf ',';
      Trace.chrome_event_into buf ?pid e;
      if Buffer.length buf >= spill_block then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end);
  Buffer.output_buffer oc buf;
  Buffer.clear buf

let run_stream ?domains ?(vms = 16) ~csv:csv_out ~trace:trace_out () =
  if vms < 0 then invalid_arg "Fleetbench.run_stream: vms must be >= 0";
  let ndomains = match domains with None -> Pool.recommended_domains () | Some d -> d in
  (* One slot per worker, written only by that worker; Pool's joins
     publish the writes before we read them back — the same disjoint-
     write pattern Pool uses for job slots. *)
  let gc_slots = Array.make (Pool.workers ~njobs:vms ~ndomains) None in
  let spill_dir = trace_out ^ ".spill" in
  mkdir_p spill_dir;
  let rows =
    Pool.map_with ?domains ~njobs:vms
      ~init:(fun w ->
        (* Arena and spill first: the GC baselines below leave them out. *)
        let a = arena () in
        let spill = open_out_bin (spill_path ~dir:spill_dir w) in
        { a;
          spill;
          gc0 = Gc.quick_stat ();
          words0 = Gc.counters ();
          njobs_run = 0 })
      ~finish:(fun w st ->
        close_out st.spill;
        (* Word counts from Gc.counters (this domain's own); collection
           counts from quick_stat, since OCaml 5 collections are
           process-wide events anyway. *)
        let minor1, promoted1, major1 = Gc.counters () in
        let minor0, promoted0, major0 = st.words0 in
        let g1 = Gc.quick_stat () in
        let g0 = st.gc0 in
        gc_slots.(w) <-
          Some
            { worker = w;
              jobs = st.njobs_run;
              minor_words = minor1 -. minor0;
              promoted_words = promoted1 -. promoted0;
              major_words = major1 -. major0;
              minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
              major_collections = g1.Gc.major_collections - g0.Gc.major_collections })
      (fun st vm ->
        let row = run_vm st.a vm in
        chrome_fragment st.a.jbuf st.spill ~vm st.a.ring;
        Trace.ring_reset st.a.ring;
        st.njobs_run <- st.njobs_run + 1;
        row)
  in
  let gc = Array.to_list gc_slots |> List.filter_map Fun.id in
  Out_channel.with_open_bin csv_out (fun oc -> output_string oc (csv_of_rows rows));
  (* Worker w ran the w-th contiguous job range in order, so worker-order
     concatenation of the spills is canonical job order. *)
  let spills = List.map (fun g -> spill_path ~dir:spill_dir g.worker) gc in
  let shards = List.map (fun (r : vm_row) -> (label_of r.vm, r.events)) rows in
  Merge.concat_spills ~out:trace_out ~header:Merge.chrome_header
    ~footer:(Merge.chrome_footer ~shards ^ "\n")
    spills;
  List.iter Sys.remove spills;
  (try Sys.rmdir spill_dir with Sys_error _ -> ());
  { vm_rows = rows; gc }
