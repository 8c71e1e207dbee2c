(* The three end-to-end workloads, measured with tracing off. Each is a
   closed loop: the next call starts when the previous one has returned,
   and inside a fleet or migrate call the pool starts a worker's next job
   when that worker is free. Throughput is host time; the simulated
   figures come from the same calls' outputs. *)

module W = Fidelius_workloads

type result = {
  attempted : int;
  failed : int;
  raw_setup_s : float;  (** median host seconds of one set-up *)
  setup_s : float;  (** [raw_setup_s] scaled to the probe's reference speed *)
  ops_per_s : float;  (** completed operations per timed host second *)
  norm_ops_per_s : float;  (** [ops_per_s] scaled to the probe's reference speed *)
  probe_s : float;  (** mean host seconds of one probe *)
  calls : int;
  sim_latency_cycles : float;
  sim_events_per_op : float;
  named : (string * float * string * string) list;
      (** the workload's own metric names: name, value, unit, clock *)
}

let setup_reps = 15

let mean f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs /. float_of_int (List.length xs)

(* Every set-up and every timed call starts from a fully collected heap.
   The program's own long runs reuse one arena per worker; calling it back
   to back instead leaves the previous calls' dead arenas (32 MiB each) for
   the major GC to reach whenever it does, which made peak RSS vary by
   whole arenas from run to run. The collection is not timed. *)
let settle () = Gc.full_major ()

(* Set up [setup_reps] times, each followed by the host-speed probe, and
   keep the median set-up time, raw and scaled to the probe's reference
   speed like the rate (see Probe). *)
let setup f =
  let reps =
    List.init setup_reps (fun _ ->
        let _, dt = Meter.timed f in
        settle ();
        let probe = Probe.run () in
        settle ();
        (dt, probe))
  in
  let raw = Meter.median (List.map fst reps) in
  (raw, raw *. Probe.reference_s /. mean snd reps)

(* Run [run] until [seconds] of host time have passed (and at least
   three times), timing each call; [check] then inspects the call's
   outputs, untimed, and returns how many of its [ops] failed. A call
   that raises counts all [ops] as failed. After each call the host-speed
   probe runs once, untimed for the workload. Returns the calls, the raw
   rate (total operations over total timed seconds, which averages over
   the host's fast and slow stretches where a median of per-call rates
   would jump between them), the normalised rate (the raw rate scaled by
   the probe's mean time over its reference time, see Probe), the mean
   probe time, and the operations attempted and failed. *)
let loop ~seconds ~ops ~run ~check =
  let calls = ref 0 and timed = ref 0.0 and attempted = ref 0 and failed = ref 0 in
  let probed = ref 0.0 in
  let start = Meter.now_ns () in
  while !calls < 3 || Meter.seconds_between start (Meter.now_ns ()) < seconds do
    incr calls;
    attempted := !attempted + ops;
    (match Meter.timed run with
    | out, dt ->
        timed := !timed +. dt;
        failed := !failed + check out
    | exception e ->
        Printf.eprintf "perfbench: call failed: %s\n%!" (Printexc.to_string e);
        failed := !failed + ops);
    settle ();
    probed := !probed +. Probe.run ();
    settle ()
  done;
  let rate = float_of_int (!attempted - !failed) /. !timed in
  let probe_s = !probed /. float_of_int !calls in
  (!calls, rate, rate *. probe_s /. Probe.reference_s, probe_s, !attempted, !failed)

(* --- fleet ------------------------------------------------------------- *)

let fleet ~reference ~dir ~domains ~seconds =
  let csv = Filename.concat dir "fleet.csv" and trace = Filename.concat dir "fleet_trace.json" in
  let stream vms = W.Fleetbench.run_stream ~domains ~vms ~csv ~trace () in
  let raw_setup_s, setup_s = setup (fun () -> ignore (stream 2)) in
  let rows = ref [] in
  let calls, ops_per_s, norm_ops_per_s, probe_s, attempted, failed =
    loop ~seconds ~ops:Outputs.fleet_vms
      ~run:(fun () -> stream Outputs.fleet_vms)
      ~check:(fun s ->
        rows := s.W.Fleetbench.vm_rows;
        if Outputs.matches reference (Outputs.fleet_values ~csv ~trace) then 0
        else Outputs.fleet_vms)
  in
  let rows = !rows in
  let per_access = mean (fun (r : W.Fleetbench.vm_row) -> r.per_access) rows in
  let events = mean (fun (r : W.Fleetbench.vm_row) -> float_of_int r.events) rows in
  { attempted;
    failed;
    raw_setup_s;
    setup_s;
    ops_per_s;
    norm_ops_per_s;
    probe_s;
    calls;
    sim_latency_cycles = per_access;
    sim_events_per_op = events;
    named =
      [ ("fleet.vms_per_s", ops_per_s, "1/s", "host");
        ("fleet.sim_cycles_per_access", per_access, "cycles", "simulated");
        ("fleet.sim_trace_events_per_vm", events, "count", "simulated") ] }

(* --- serve ------------------------------------------------------------- *)

let serve ~reference ~seed ~seconds =
  let cfg = Outputs.serve_config seed in
  let raw_setup_s, setup_s = setup (fun () -> ignore (W.Serve.run { cfg with requests = 512 })) in
  let first = ref None in
  let calls, ops_per_s, norm_ops_per_s, probe_s, attempted, failed =
    loop ~seconds ~ops:cfg.requests
      ~run:(fun () -> W.Serve.run cfg)
      ~check:(fun r ->
        (* Every call serves the same inputs, so every report must be the
           first one, and every request must complete. *)
        let same = match !first with None -> first := Some r; true | Some r0 -> r = r0 in
        if not same then prerr_endline "perfbench: serve report changed between identical calls";
        if same && r.completed = cfg.requests then 0 else cfg.requests)
  in
  (* The workload seed is arbitrary, so its outputs have no pinned
     reference; the library-default seed's report does. *)
  let ref_cfg = Outputs.serve_reference_config in
  let ref_ok = Outputs.matches reference (Outputs.serve_values (W.Serve.run ref_cfg)) in
  let r = match !first with Some r -> r | None -> failwith "serve: no call completed" in
  let p99_cycles = r.p99_us *. 1000.0 (* the simulator's nominal 1 GHz clock *) in
  let switches = float_of_int r.hypercalls /. float_of_int r.completed in
  { attempted = attempted + ref_cfg.requests;
    failed = (failed + if ref_ok then 0 else ref_cfg.requests);
    raw_setup_s;
    setup_s;
    ops_per_s;
    norm_ops_per_s;
    probe_s;
    calls;
    sim_latency_cycles = p99_cycles;
    sim_events_per_op = switches;
    named =
      [ ("serve.req_per_s", ops_per_s, "1/s", "host");
        ("serve.sim_p99_us", r.p99_us, "us", "simulated");
        ("serve.sim_req_per_s", r.rps, "1/s", "simulated");
        ("serve.sim_world_switches_per_req", switches, "count", "simulated") ] }

(* --- migrate ----------------------------------------------------------- *)

let migrate ~reference ~domains ~seconds =
  let run vms = W.Migratebench.run ~domains ~vms ~budget_us:Outputs.migrate_budget_us () in
  let raw_setup_s, setup_s = setup (fun () -> ignore (run 2)) in
  let last = ref None in
  let calls, ops_per_s, norm_ops_per_s, probe_s, attempted, failed =
    loop ~seconds ~ops:Outputs.migrate_vms
      ~run:(fun () -> run Outputs.migrate_vms)
      ~check:(fun t ->
        last := Some t;
        let missing_keys =
          List.length (List.filter (fun (r : W.Migratebench.row) -> not r.key_delivered) t.rows)
        in
        if Outputs.matches reference (Outputs.migrate_values t) then missing_keys
        else Outputs.migrate_vms)
  in
  let t = match !last with Some t -> t | None -> failwith "migrate: no call completed" in
  let downtime = mean (fun (r : W.Migratebench.row) -> r.downtime_us) t.rows in
  let pages = W.Migratebench.total_pages t in
  let pages_per_vm = float_of_int pages /. float_of_int (List.length t.rows) in
  { attempted;
    failed;
    raw_setup_s;
    setup_s;
    ops_per_s;
    norm_ops_per_s;
    probe_s;
    calls;
    sim_latency_cycles = downtime *. 1000.0 (* nominal 1 GHz clock *);
    sim_events_per_op = pages_per_vm;
    named =
      [ ("migrate.vms_per_s", ops_per_s, "1/s", "host");
        ("migrate.sim_downtime_us", downtime, "us", "simulated");
        ("migrate.sim_pages_sent", float_of_int pages, "pages", "simulated") ] }
