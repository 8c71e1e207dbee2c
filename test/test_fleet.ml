(* Tests for the fleet runner: the job-range partition property,
   pool edge cases (empty job list, more domains than jobs, failing jobs),
   per-shard trace isolation, and the determinism contract — the fleet
   benchmark's merged artifacts and the fault matrix's verdicts must be
   byte-identical for any domain count (SCALING.md). *)

module Pool = Fidelius_fleet.Pool
module Merge = Fidelius_fleet.Merge
module Trace = Fidelius_obs.Trace
module Json = Fidelius_obs.Json
module W = Fidelius_workloads
module Matrix = Fidelius_inject_matrix.Matrix
module Site = Fidelius_inject.Site

(* --- ranges: the static schedule ----------------------------------------- *)

(* [rs] covers 0..njobs-1 with contiguous, in-order, non-empty ranges
   whose lengths differ by at most one. *)
let balanced_cover ~njobs rs =
  let covered = List.concat_map (fun (s, l) -> List.init l (fun i -> s + i)) rs in
  let lens = List.map snd rs in
  let lo = List.fold_left min max_int lens and hi = List.fold_left max 0 lens in
  covered = List.init njobs (fun j -> j)
  && (njobs = 0 || (lo > 0 && hi - lo <= 1))

let test_ranges_partition =
  QCheck.Test.make ~count:200 ~name:"ranges partition 0..njobs-1 evenly"
    QCheck.(pair (int_bound 200) (int_range 1 32))
    (fun (njobs, nworkers) ->
      let rs = Pool.ranges ~njobs ~nworkers in
      (* ...and never more workers than jobs. *)
      balanced_cover ~njobs rs && List.length rs = min nworkers (max njobs 1))

let test_ranges_pure () =
  Alcotest.(check bool) "same inputs, same schedule" true
    (Pool.ranges ~njobs:17 ~nworkers:4 = Pool.ranges ~njobs:17 ~nworkers:4);
  Alcotest.(check (list (pair int int))) "13 jobs over 4 workers"
    [ (0, 4); (4, 3); (7, 3); (10, 3) ]
    (Pool.ranges ~njobs:13 ~nworkers:4);
  Alcotest.(check (list (pair int int))) "no jobs, one empty range" [ (0, 0) ]
    (Pool.ranges ~njobs:0 ~nworkers:3);
  Alcotest.(check int) "workers: capped by domains, jobs and cores"
    (min (Pool.recommended_domains ()) 4)
    (Pool.workers ~njobs:10 ~ndomains:4);
  Alcotest.(check int) "workers: one for an empty job list" 1 (Pool.workers ~njobs:0 ~ndomains:3);
  Alcotest.check_raises "ranges: njobs < 0 rejected"
    (Invalid_argument "Pool.ranges: njobs must be >= 0") (fun () ->
      ignore (Pool.ranges ~njobs:(-1) ~nworkers:2));
  Alcotest.check_raises "ranges: nworkers < 1 rejected"
    (Invalid_argument "Pool.ranges: nworkers must be >= 1") (fun () ->
      ignore (Pool.ranges ~njobs:4 ~nworkers:0));
  Alcotest.check_raises "workers: ndomains < 1 rejected"
    (Invalid_argument "Pool.workers: ndomains must be >= 1") (fun () ->
      ignore (Pool.workers ~njobs:4 ~ndomains:0))

(* The split on a 1-, 2-, 3-, 4- and 8-core host, whatever this host has:
   [Pool.workers] caps the requested domains at the core count, and
   [ranges] gives each worker one balanced, contiguous job range. A
   request within the core count gets one worker per requested domain. *)
let test_ranges_per_core_count () =
  List.iter
    (fun cores ->
      List.iter
        (fun (njobs, ndomains) ->
          let nworkers = min cores (min ndomains (max njobs 1)) in
          let rs = Pool.ranges ~njobs ~nworkers in
          let label what =
            Printf.sprintf "%d cores, %d jobs, %d domains: %s" cores njobs ndomains what
          in
          Alcotest.(check bool) (label "balanced contiguous cover") true
            (balanced_cover ~njobs rs);
          Alcotest.(check int) (label "one range per worker") nworkers (List.length rs);
          if ndomains <= cores then
            Alcotest.(check (list (pair int int))) (label "one worker per requested domain")
              (Pool.ranges ~njobs ~nworkers:ndomains) rs)
        [ (1, 1); (2, 2); (3, 8); (4, 4); (5, 3); (7, 7); (8, 8); (10, 4); (13, 4); (17, 16);
          (32, 32); (100, 7) ])
    [ 1; 2; 3; 4; 8 ];
  Alcotest.(check (list (pair int int))) "10 jobs at --domains 4 on 2 cores split 5/5"
    [ (0, 5); (5, 5) ]
    (Pool.ranges ~njobs:10 ~nworkers:(min 2 4))

(* --- map: order, edge cases, failure ------------------------------------- *)

let test_map_canonical_order () =
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "squares in job order on %d domains" domains)
        (List.init 23 (fun j -> j * j))
        (Pool.map ~domains ~njobs:23 (fun j -> j * j)))
    [ 1; 2; 7; 64 ]

let test_map_empty () =
  Alcotest.(check (list int)) "njobs = 0 is []" [] (Pool.map ~domains:4 ~njobs:0 (fun j -> j))

let test_map_fewer_jobs_than_domains () =
  Alcotest.(check (list int)) "2 jobs on 8 domains" [ 0; 10 ]
    (Pool.map ~domains:8 ~njobs:2 (fun j -> j * 10))

let test_map_list () =
  Alcotest.(check (list string)) "map_list preserves list order"
    [ "a!"; "b!"; "c!" ]
    (Pool.map_list ~domains:2 (fun s -> s ^ "!") [ "a"; "b"; "c" ])

let test_map_failure_deterministic () =
  (* Jobs 1 and 3 raise, on different shards; the pool must finish every
     other job and then report the LOWEST failing index, whichever domain
     crashed first. *)
  let completed = Atomic.make 0 in
  let attempt () =
    Pool.map ~domains:2 ~njobs:5 (fun j ->
        if j = 1 || j = 3 then failwith (Printf.sprintf "job %d boom" j)
        else (Atomic.incr completed; j))
  in
  (match attempt () with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Pool.Job_failed { job; exn = Failure m } ->
      Alcotest.(check int) "lowest failing job reported" 1 job;
      Alcotest.(check string) "original exception preserved" "job 1 boom" m
  | exception e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e));
  Alcotest.(check int) "non-failing jobs all completed" 3 (Atomic.get completed)

let test_map_validates () =
  Alcotest.check_raises "domains < 1 rejected"
    (Invalid_argument "Pool.map: domains must be >= 1") (fun () ->
      ignore (Pool.map ~domains:0 ~njobs:3 (fun j -> j)))

(* --- map_with: worker-lifetime state -------------------------------------- *)

let test_map_with_init_finish_once_per_worker () =
  (* init and finish must each run exactly once per worker domain, and
     every job on a worker must see the state its init returned. *)
  let njobs = 13 and domains = 4 in
  let nworkers = Pool.workers ~njobs ~ndomains:domains in
  let inits = Atomic.make 0 and finishes = Atomic.make 0 in
  let results =
    Pool.map_with ~domains ~njobs
      ~init:(fun w -> Atomic.incr inits; (w, ref 0))
      ~finish:(fun w (w', jobs_seen) ->
        Atomic.incr finishes;
        Alcotest.(check int) "finish sees its own worker's state" w w';
        Alcotest.(check bool) "worker ran at least one job" true (!jobs_seen > 0))
      (fun (w, jobs_seen) j -> incr jobs_seen; (w, j))
  in
  Alcotest.(check int) "one init per worker" nworkers (Atomic.get inits);
  Alcotest.(check int) "one finish per worker" nworkers (Atomic.get finishes);
  Alcotest.(check (list int)) "jobs in canonical order"
    (List.init njobs (fun j -> j))
    (List.map snd results);
  (* A worker's jobs are its range: contiguous, so each worker index must
     tag a contiguous run of job indices. *)
  let job_workers = List.map fst results in
  let deduped =
    List.fold_left (fun acc w -> match acc with x :: _ when x = w -> acc | _ -> w :: acc) []
      job_workers
  in
  Alcotest.(check int) "each worker owns one contiguous job range" nworkers
    (List.length deduped)

let test_map_with_shared_state_sequential () =
  (* Jobs on one worker reuse the same state sequentially: a per-worker
     counter must count that worker's jobs without ever racing. *)
  let rows =
    Pool.map_with ~domains:2 ~njobs:10
      ~init:(fun _ -> ref 0)
      (fun c j -> incr c; (j, !c))
  in
  List.iter
    (fun (j, nth) ->
      Alcotest.(check bool)
        (Printf.sprintf "job %d is its worker's %dth (1-based)" j nth)
        true
        (nth >= 1 && nth <= 10))
    rows;
  (* First job of the run is always some worker's first. *)
  Alcotest.(check int) "job 0 is its worker's first" 1 (List.assoc 0 rows)

let test_map_with_finish_runs_on_job_failure () =
  let finished = Atomic.make 0 in
  (match
     Pool.map_with ~domains:2 ~njobs:6
       ~init:(fun _ -> ())
       ~finish:(fun _ () -> Atomic.incr finished)
       (fun () j -> if j = 2 then failwith "boom" else j)
   with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Pool.Job_failed { job; _ } ->
      Alcotest.(check int) "lowest failing job" 2 job);
  Alcotest.(check int) "finish ran on every worker despite the failure"
    (Pool.workers ~njobs:6 ~ndomains:2)
    (Atomic.get finished)

let test_map_with_validates () =
  Alcotest.check_raises "domains < 1 rejected"
    (Invalid_argument "Pool.map_with: domains must be >= 1") (fun () ->
      ignore
        (Pool.map_with ~domains:0 ~njobs:3 ~init:(fun _ -> ()) (fun () j -> j)))

(* --- per-shard trace isolation ------------------------------------------- *)

let test_shard_trace_isolation () =
  (* A recording on the caller's domain must be invisible to pool jobs
     (they start from pristine DLS state), and their recordings must not
     perturb it. *)
  let outer = Trace.ring () in
  let inside =
    Trace.record_into outer (fun () ->
        Trace.emit (Trace.Mark "outer");
        Pool.map ~domains:2 ~njobs:4 (fun j ->
            let enabled_at_entry = Trace.enabled () in
            let ring = Trace.ring () in
            Trace.record_into ring (fun () -> Trace.emit (Trace.Mark "inner"));
            (enabled_at_entry, Trace.ring_length ring, j)))
  in
  List.iter
    (fun (enabled_at_entry, n, j) ->
      Alcotest.(check bool)
        (Printf.sprintf "job %d starts with tracing off" j)
        false enabled_at_entry;
      Alcotest.(check int) (Printf.sprintf "job %d recorded its own event" j) 1 n)
    inside;
  Alcotest.(check int) "outer recording untouched by shards" 1 (Trace.ring_length outer)

(* --- merge helpers -------------------------------------------------------- *)

(* [f csv trace] with two fresh temp artifact paths, removed afterwards. *)
let with_artifacts f =
  let csv = Filename.temp_file "fleet" ".csv" and trace = Filename.temp_file "fleet" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove csv; Sys.remove trace) (fun () -> f csv trace)

let read_file f = In_channel.with_open_bin f In_channel.input_all

(* The CSV and trace bytes of one streamed fleet run, plus its rows. *)
let stream_artifacts ~domains ~vms =
  with_artifacts (fun csv trace ->
      let s = W.Fleetbench.run_stream ~domains ~vms ~csv ~trace () in
      (read_file csv, read_file trace, s.W.Fleetbench.vm_rows))

let member_exn k j =
  match Json.member k j with Some v -> v | None -> Alcotest.failf "member %S missing" k

let int_member k j =
  match member_exn k j with Json.Int n -> n | _ -> Alcotest.failf "member %S not an int" k

(* A parsed multi-shard Chrome document holds one [process_name] row per
   shard, in order, with pid k+1 and shard k's label; every instant event
   sits in a shard's row; and otherData lists each shard's event count. *)
let check_chrome_shards doc shards =
  let events =
    match member_exn "traceEvents" doc with
    | Json.Arr evs -> evs
    | _ -> Alcotest.fail "traceEvents is not an array"
  in
  let meta, instant = List.partition (fun e -> member_exn "ph" e = Json.Str "M") events in
  Alcotest.(check (list (pair int string))) "one process_name row and pid per shard"
    (List.mapi (fun k (label, _) -> (k + 1, label)) shards)
    (List.map
       (fun e ->
         Alcotest.(check bool) "metadata names a process" true
           (member_exn "name" e = Json.Str "process_name");
         match member_exn "name" (member_exn "args" e) with
         | Json.Str label -> (int_member "pid" e, label)
         | _ -> Alcotest.fail "process_name label not a string")
       meta);
  List.iteri
    (fun k (label, n) ->
      Alcotest.(check int)
        (Printf.sprintf "shard %s: its events carry pid %d" label (k + 1))
        n
        (List.length (List.filter (fun e -> int_member "pid" e = k + 1) instant)))
    shards;
  Alcotest.(check int) "no event outside a shard row"
    (List.fold_left (fun a (_, n) -> a + n) 0 shards)
    (List.length instant);
  let other = member_exn "otherData" doc in
  Alcotest.(check int) "otherData shard count" (List.length shards) (int_member "shards" other);
  Alcotest.(check bool) "otherData events per shard" true
    (member_exn "events_per_shard" other
    = Json.Obj (List.map (fun (label, n) -> (label, Json.Int n)) shards))

let test_streamed_chrome_shards () =
  let _csv, trace, rows = stream_artifacts ~domains:2 ~vms:2 in
  Alcotest.(check bool) "trace ends with a newline" true
    (String.ends_with ~suffix:"}\n" trace);
  check_chrome_shards (Json.parse trace)
    (List.map
       (fun (r : W.Fleetbench.vm_row) ->
         (Printf.sprintf "vm%d:%s" r.W.Fleetbench.vm r.W.Fleetbench.profile, r.W.Fleetbench.events))
       rows)

(* --- reusable rings: wraparound and reuse hygiene -------------------------- *)

let test_ring_wraparound_and_reuse () =
  let r = Trace.ring ~capacity:4 () in
  Trace.record_into r (fun () ->
      for i = 0 to 9 do
        Trace.emit (Trace.Mark (Printf.sprintf "m%d" i))
      done);
  Alcotest.(check int) "emitted counts past capacity" 10 (Trace.ring_emitted r);
  Alcotest.(check int) "dropped = emitted - capacity" 6 (Trace.ring_dropped r);
  Alcotest.(check int) "length capped at capacity" 4 (Trace.ring_length r);
  let seqs = List.map (fun (e : Trace.entry) -> e.Trace.seq) (Trace.ring_entries r) in
  Alcotest.(check (list int)) "survivors are the newest, oldest first" [ 6; 7; 8; 9 ] seqs;
  (* ring_iter must agree with ring_entries byte for byte. *)
  let via_iter = ref [] in
  Trace.ring_iter r (fun e -> via_iter := e :: !via_iter);
  Alcotest.(check bool) "ring_iter = ring_entries" true
    (List.rev !via_iter = Trace.ring_entries r);
  (* Reuse after a wrapped run: nothing stale may leak into the next job. *)
  Trace.record_into r (fun () -> Trace.emit (Trace.Mark "fresh"));
  Alcotest.(check int) "reused ring: emitted reset" 1 (Trace.ring_emitted r);
  Alcotest.(check int) "reused ring: dropped reset" 0 (Trace.ring_dropped r);
  (match Trace.ring_entries r with
  | [ { Trace.seq = 0; event = Trace.Mark "fresh"; _ } ] -> ()
  | _ -> Alcotest.fail "stale entries leaked across ring reuse");
  Alcotest.check_raises "capacity <= 0 rejected"
    (Invalid_argument "Trace.ring: capacity must be positive") (fun () ->
      ignore (Trace.ring ~capacity:0 ()))

(* --- streaming merge: header/footer composition and spill concat ----------- *)

let test_chrome_streaming_envelope () =
  (* header ^ fragments ^ footer, each fragment written the way the fleet
     writes its spills (leading comma after the first, process_name row,
     then direct-written instant events), must parse to one document with
     a row per shard — an empty shard included — whose events are exactly
     the reference trees. This is what makes spill-file concatenation a
     legal merge. *)
  let mk label n =
    let ring = Trace.ring () in
    Trace.record_into ring (fun () ->
        for i = 0 to n - 1 do
          Trace.emit (Trace.Mark (Printf.sprintf "%s-%d \"q\"\n" label i))
        done);
    (label, Trace.ring_entries ring)
  in
  let shards = [ mk "vm0:a" 3; mk "vm1:b" 0; mk "vm2:c" 2 ] in
  let buf = Buffer.create 256 in
  Buffer.add_string buf Merge.chrome_header;
  List.iteri
    (fun k (label, entries) ->
      if k > 0 then Buffer.add_char buf ',';
      Json.to_buffer buf (Merge.process_meta ~pid:(k + 1) label);
      List.iter
        (fun e ->
          Buffer.add_char buf ',';
          Trace.chrome_event_into buf ~pid:(k + 1) e)
        entries)
    shards;
  Buffer.add_string buf
    (Merge.chrome_footer
       ~shards:(List.map (fun (l, es) -> (l, List.length es)) shards));
  let doc = Json.parse (Buffer.contents buf) in
  check_chrome_shards doc (List.map (fun (l, es) -> (l, List.length es)) shards);
  Alcotest.(check bool) "instant events = reference trees, in shard order" true
    (List.filter (fun e -> member_exn "ph" e <> Json.Str "M")
       (match member_exn "traceEvents" doc with Json.Arr evs -> evs | _ -> [])
    = List.concat
        (List.mapi
           (fun k (_, entries) -> List.map (Trace.chrome_event ~pid:(k + 1)) entries)
           shards))

let test_concat_spills () =
  let dir = Filename.temp_file "fleet-spill" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let spill n contents =
    let p = Filename.concat dir (Printf.sprintf "s-%d" n) in
    let oc = open_out_bin p in
    output_string oc contents; close_out oc; p
  in
  let paths = [ spill 0 "alpha,"; spill 1 ""; spill 2 "beta" ] in
  let out = Filename.concat dir "merged" in
  Merge.concat_spills ~out ~header:"H[" ~footer:"]F" paths;
  let ic = open_in_bin out in
  let merged = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "header + spills in order + footer" "H[alpha,beta]F" merged;
  List.iter Sys.remove (out :: paths);
  Sys.rmdir dir

(* --- the determinism contract --------------------------------------------- *)

(* The arena-reuse property, at the pool/ring level: a run whose workers
   reuse one ring + one scratch buffer across all their jobs must produce
   bytes identical to a run that records into a fresh ring per job, for
   random (njobs, ndomains, seed). The job itself is seed-dependent so
   reuse bugs (stale counters, stale clock, stale scratch) have plenty of
   surface to corrupt. *)
let test_arena_reuse_byte_identical =
  QCheck.Test.make ~count:40 ~name:"arena reuse is byte-invisible"
    QCheck.(triple (int_bound 24) (int_range 1 6) (int_bound 1000))
    (fun (njobs, ndomains, seed) ->
      let job_events j =
        (* deterministic, seed- and job-dependent event stream *)
        let n = 1 + ((seed + (j * 7)) mod 5) in
        for i = 0 to n - 1 do
          Trace.emit (Trace.Mark (Printf.sprintf "s%d-j%d-e%d" seed j i))
        done;
        n
      in
      let serialize buf j entries =
        Buffer.clear buf;
        List.iter (fun e -> Trace.chrome_event_into buf ~pid:(j + 1) e) entries;
        Buffer.contents buf
      in
      let fresh =
        Pool.map ~domains:ndomains ~njobs (fun j ->
            let ring = Trace.ring () in
            let n = Trace.record_into ring (fun () -> job_events j) in
            (n, serialize (Buffer.create 64) j (Trace.ring_entries ring)))
      in
      let reused =
        Pool.map_with ~domains:ndomains ~njobs
          ~init:(fun _ -> (Trace.ring ~capacity:8 (), Buffer.create 64))
          (fun (ring, buf) j ->
            let n = Trace.record_into ring (fun () -> job_events j) in
            (n, serialize buf j (Trace.ring_entries ring)))
      in
      fresh = reused)

(* Digests of run_stream's CSV and trace, taken from the in-memory
   runner and tree-building exporter this path replaced. The 16-VM pair
   is the one perfbench/reference.txt pins. *)
let pinned_fleets =
  [ (0, 1, "0d706e9099d712f59ba9b4630fcd043a", "68fa57fbfe4204f940e0712e37498c30");
    (1, 2, "3cf9e0dcfccdba80241ce75cab009cb7", "00b00745449ac9c66d3ccc24b16ea077");
    (2, 3, "09fac3afb038bf4cf35babbc7d189dff", "8ef38244b21cdeca9d68d7abaa84d723");
    (3, 1, "7eb293f28e52fee8e89ae81b60255c40", "490c33ec3a40bd73d2664db98e089e4b");
    (5, 2, "f194ec4bb0ddd05161d079bc9f4973c0", "50764d061f1d86b4fbd40d9e821ea514");
    (16, 2, "e83213fa650f8b24b9b34e1d8c61346a", "55913b590fb19254454951c3e3736b5e") ]

let test_stream_pinned_digests () =
  List.iter
    (fun (vms, domains, csv_md5, trace_md5) ->
      let csv, trace, _ = stream_artifacts ~domains ~vms in
      let md5 s = Digest.to_hex (Digest.string s) in
      Alcotest.(check string) (Printf.sprintf "%d VMs on %d domains: CSV" vms domains) csv_md5
        (md5 csv);
      Alcotest.(check string) (Printf.sprintf "%d VMs on %d domains: trace" vms domains)
        trace_md5 (md5 trace))
    pinned_fleets

let test_fleetbench_domain_count_invariance () =
  (* 4 VMs on 3 domains split unevenly: 2/1/1 on 3+ cores, 2/2 on 2. *)
  let csv1, trace1, rows = stream_artifacts ~domains:1 ~vms:4 in
  let csv3, trace3, _ = stream_artifacts ~domains:3 ~vms:4 in
  Alcotest.(check string) "per-VM CSV byte-identical across domain counts" csv1 csv3;
  Alcotest.(check bool) "merged Chrome trace byte-identical across domain counts" true
    (trace1 = trace3);
  List.iter
    (fun (r : W.Fleetbench.vm_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "vm %d recorded trace events" r.W.Fleetbench.vm)
        true (r.W.Fleetbench.events > 0))
    rows

(* --- scale: bounded memory, no scaling inversion, per-worker GC --------- *)

(* Bounded-memory guard for the 1,000-VM story: a streamed 100-VM run must
   not grow the live heap with per-VM state (rows are ~a dozen words each;
   trace events must all have been spilled and collected, arenas freed
   with their worker domains). The 2M-word (~16 MiB) ceiling is far above
   the rows yet far below what one retained trace shard population (100
   rings' worth of entries) would cost. *)
let test_stream_heap_bounded () =
  with_artifacts (fun csv trace ->
      let live_words () =
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      ignore (W.Fleetbench.run_stream ~domains:2 ~vms:8 ~csv ~trace ());
      let before = live_words () in
      ignore (W.Fleetbench.run_stream ~domains:4 ~vms:100 ~csv ~trace ());
      let growth = live_words () - before in
      if growth > 2_000_000 then
        Alcotest.failf
          "streamed 100-VM run grew the live heap by %d words (> 2M): per-VM state is \
           being retained"
          growth)

(* Asking for more domains must not make the run slower (the scaling
   inversion the worker-domain cap in Pool fixed). Times [run_stream], the
   path `bench fleet`, `fleet-scale` and perfbench time. Generous slack
   (d2 may be up to 1/0.7 = 1.43x slower) because a shared host is noisy;
   the real curve is recorded by `bench fleet`. *)
let test_no_scaling_inversion () =
  with_artifacts (fun csv trace ->
      let stream d vms = ignore (W.Fleetbench.run_stream ~domains:d ~vms ~csv ~trace ()) in
      stream 2 2;
      let timed d =
        Gc.compact ();
        let t0 = Unix.gettimeofday () in
        stream d 8;
        Unix.gettimeofday () -. t0
      in
      let t1 = timed 1 in
      let t2 = timed 2 in
      let rate1 = 8.0 /. t1 and rate2 = 8.0 /. t2 in
      if rate2 < 0.7 *. rate1 then
        Alcotest.failf
          "scaling inversion: domains=2 ran at %.1f VMs/s vs %.1f VMs/s for domains=1 \
           (below the 0.7x slack)"
          rate2 rate1)

(* Each worker's gc_stats must count that worker's own allocation only:
   summed over workers, minor_words cannot exceed what the whole process
   allocated during the call (10% slack for the caller's own spill merge
   is generous — the merge allocates almost nothing). *)
let test_gc_stats_per_worker () =
  with_artifacts (fun csv trace ->
      let g0 = Gc.quick_stat () in
      let s = W.Fleetbench.run_stream ~domains:2 ~vms:4 ~csv ~trace () in
      let g1 = Gc.quick_stat () in
      let process = g1.Gc.minor_words -. g0.Gc.minor_words in
      let workers =
        List.fold_left
          (fun a (g : W.Fleetbench.gc_stats) -> a +. g.W.Fleetbench.minor_words)
          0.0 s.W.Fleetbench.gc
      in
      if workers > 1.1 *. process then
        Alcotest.failf
          "per-worker minor_words sum %.0f is %.2fx the process-wide delta %.0f (> 1.1x): \
           workers are reading process-wide counters"
          workers (workers /. process) process)

let reduced_attacks () =
  match Fidelius_attacks.Suite.all with
  | a :: b :: _ -> [ a; b ]
  | _ -> Alcotest.fail "attack suite too small"

let test_matrix_domain_count_invariance () =
  let run domains =
    Matrix.run ~seed:11L ~domains
      ~sites:[ Site.Snapshot_truncate; Site.Fw_drop ]
      ~attacks:(reduced_attacks ()) ()
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check bool) "identical report on 1 and 4 domains" true (r1 = r4)

let () =
  Alcotest.run "fleet"
    [ ( "ranges",
        [ QCheck_alcotest.to_alcotest test_ranges_partition;
          Alcotest.test_case "pure and validated" `Quick test_ranges_pure;
          Alcotest.test_case "split on 1-8 cores" `Quick test_ranges_per_core_count ] );
      ( "pool",
        [ Alcotest.test_case "canonical order" `Quick test_map_canonical_order;
          Alcotest.test_case "empty job list" `Quick test_map_empty;
          Alcotest.test_case "fewer jobs than domains" `Quick test_map_fewer_jobs_than_domains;
          Alcotest.test_case "map_list" `Quick test_map_list;
          Alcotest.test_case "deterministic failure" `Quick test_map_failure_deterministic;
          Alcotest.test_case "validates domains" `Quick test_map_validates ] );
      ( "map_with",
        [ Alcotest.test_case "init/finish once per worker" `Quick
            test_map_with_init_finish_once_per_worker;
          Alcotest.test_case "shared state is sequential" `Quick
            test_map_with_shared_state_sequential;
          Alcotest.test_case "finish survives job failure" `Quick
            test_map_with_finish_runs_on_job_failure;
          Alcotest.test_case "validates domains" `Quick test_map_with_validates ] );
      ( "isolation",
        [ Alcotest.test_case "shard traces isolated" `Quick test_shard_trace_isolation ] );
      ( "arena",
        [ Alcotest.test_case "ring wraparound and reuse" `Quick
            test_ring_wraparound_and_reuse;
          QCheck_alcotest.to_alcotest test_arena_reuse_byte_identical ] );
      ( "merge",
        [ Alcotest.test_case "chrome shards" `Quick test_streamed_chrome_shards;
          Alcotest.test_case "streaming envelope" `Quick test_chrome_streaming_envelope;
          Alcotest.test_case "concat_spills" `Quick test_concat_spills ] );
      ( "determinism",
        [ Alcotest.test_case "fleet bench artifacts" `Quick
            test_fleetbench_domain_count_invariance;
          Alcotest.test_case "run_stream artifacts = pinned md5s" `Quick
            test_stream_pinned_digests;
          Alcotest.test_case "fault matrix verdicts" `Quick
            test_matrix_domain_count_invariance ] );
      ( "scale",
        [ Alcotest.test_case "streamed heap stays bounded" `Quick test_stream_heap_bounded;
          Alcotest.test_case "no scaling inversion" `Quick test_no_scaling_inversion;
          Alcotest.test_case "per-worker gc counters" `Quick test_gc_stats_per_worker ] ) ]
