(* The traced run. Each workload's sequence of public calls is replayed
   here, from the benchmark's own code, with a span around every call
   into a layer: the calls [Engine.run] (under [Fleetbench.run_stream]),
   [Serve.run] and [Migratebench.run_vm] make, in the same order, with
   the same seeds. A replay that stops reproducing the program's own
   simulated outputs would attribute time to a different program, so
   every replay is checked against the program's results for the same
   inputs and counts a mismatch as a failed operation.

   The constants below mirror the library's private sampling sizes and
   seed derivations; the fidelity checks catch any drift. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module W = Fidelius_workloads
module Trace = Fidelius_obs.Trace
module Json = Fidelius_obs.Json
module Merge = Fidelius_fleet.Merge
module Pool = Fidelius_fleet.Pool
module Rng = Fidelius_crypto.Rng

type metric = string * float * string
(** name, value, unit *)

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
}

(* Per-layer counts of simulated events; every other per-layer metric is
   host time or host allocation. *)
let simulated =
  [ "fleet.obs.trace_events"; "fleet.obs.trace_bytes"; "serve.crypto.codec_pages";
    "serve.xen.world_switches"; "serve.xen.doorbells"; "serve.xen.ring_rejected";
    "serve.xen.net_frames"; "migrate.xen.guest_writes"; "migrate.core.precopy_rounds";
    "migrate.core.pages_sent"; "migrate.core.key_releases" ]

let page = Hw.Addr.page_size

(* Run [f] repeatedly, at least once, until [seconds] have passed. *)
let repeat_for ~seconds f =
  let start = Meter.now_ns () in
  let rounds = ref 0 in
  while !rounds = 0 || Meter.seconds_between start (Meter.now_ns ()) < seconds do
    f !rounds;
    incr rounds
  done

(* Both halves of a round, in alternating order so that a steady drift in
   host speed favours neither the untraced program nor the replay. *)
let paired round untraced replay =
  if round mod 2 = 0 then
    let u = untraced () in
    (u, replay ())
  else
    let r = replay () in
    (untraced (), r)

let mismatch what =
  Printf.eprintf "perfbench: replay fidelity: %s\n%!" what;
  1

(* --- fleet ------------------------------------------------------------- *)

let profiles = Array.of_list (W.Spec2006.all @ W.Parsec.all)

(* Engine's sample sizes. *)
let access_bytes = 64
let sample_accesses = 512
let sample_exits = 32

type fleet_spans = {
  create : Meter.acc;
  hv_boot : Meter.acc;
  install : Meter.acc;
  launch : Meter.acc;
  access : Meter.acc;
  exit : Meter.acc;
  serialize : Meter.acc;
  vm : Meter.acc;  (** the whole replayed job, spill write included *)
  merge : Meter.acc;  (** [run_stream]'s final merge of the spills, per round *)
  mutable events : int;
  mutable bytes : int;
}

let fail_on what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* One fleet job: [Engine.run ~mem p Fidelius_enc] recorded into the
   worker's ring, then [run_stream]'s chrome fragment serialised into
   [buf]. Returns the job's CSV row. *)
let fleet_vm sp ~mem ~ring ~buf vm =
  let p = profiles.(vm mod Array.length profiles) in
  let seed = W.Engine.seed_of p W.Engine.Fidelius_enc in
  let per_access, per_exit, costs =
    Trace.record_into ring (fun () ->
        let machine = Meter.span sp.create (fun () -> Hw.Machine.create ~mem ~seed ()) in
        Trace.set_clock (fun () -> Hw.Cost.total machine.Hw.Machine.ledger);
        let hv = Meter.span sp.hv_boot (fun () -> Xen.Hypervisor.boot machine) in
        let memory_pages = p.W.Profile.working_set_pages + 8 in
        let fid = Meter.span sp.install (fun () -> Core.Fidelius.install hv) in
        let dom =
          Meter.span sp.launch (fun () ->
              let rng = Rng.create (Int64.add seed 3L) in
              let kernel = [ Bytes.make page '\000'; Bytes.make page '\000' ] in
              let prepared =
                Sev.Transport.Owner.prepare ~rng
                  ~platform_public:(Core.Fidelius.platform_key fid)
                  ~policy:Sev.Firmware.policy_nodbg ~kernel_pages:kernel
              in
              fail_on "fleet boot"
                (Core.Fidelius.boot_protected_vm fid ~name:p.W.Profile.name ~memory_pages
                   ~prepared))
        in
        for gvfn = 0 to memory_pages - 1 do
          Xen.Domain.guest_map dom ~gvfn ~gfn:gvfn ~writable:true ~executable:true ~c_bit:false
        done;
        ignore (fail_on "enable_mem_enc" (Xen.Hypervisor.hypercall hv dom Xen.Hypercall.Enable_mem_enc));
        let ledger = machine.Hw.Machine.ledger in
        let rng = Rng.create (Int64.add seed 101L) in
        let data = Bytes.make access_bytes 'x' in
        let t0 = Hw.Cost.total ledger in
        for _ = 1 to sample_accesses do
          let gvfn = 2 + Rng.int rng p.W.Profile.working_set_pages in
          (match Hw.Pagetable.lookup dom.Xen.Domain.npt gvfn with
          | Some npte -> Hw.Cache.invalidate_page machine.Hw.Machine.cache npte.Hw.Pagetable.frame
          | None -> ());
          let addr = Hw.Addr.addr_of gvfn (Rng.int rng (page - access_bytes)) in
          Meter.span sp.access (fun () ->
              Xen.Hypervisor.in_guest hv dom (fun () ->
                  if Rng.float rng 1.0 < p.W.Profile.write_fraction then
                    Xen.Domain.write machine dom ~addr data
                  else ignore (Xen.Domain.read machine dom ~addr ~len:access_bytes)))
        done;
        let per_access =
          float_of_int (Hw.Cost.total ledger - t0) /. float_of_int sample_accesses
        in
        let t1 = Hw.Cost.total ledger in
        for _ = 1 to sample_exits do
          Meter.span sp.exit (fun () ->
              ignore (fail_on "void hypercall" (Xen.Hypervisor.hypercall hv dom Xen.Hypercall.Void)))
        done;
        ( per_access,
          float_of_int (Hw.Cost.total ledger - t1) /. float_of_int sample_exits,
          machine.Hw.Machine.costs ))
  in
  let label = Printf.sprintf "vm%d:%s" vm p.W.Profile.name in
  Meter.span sp.serialize (fun () ->
      Buffer.clear buf;
      if vm > 0 then Buffer.add_char buf ',';
      Json.to_buffer buf (Merge.process_meta ~pid:(vm + 1) label);
      Trace.ring_iter ring (fun e ->
          Buffer.add_char buf ',';
          Json.to_buffer buf (Trace.chrome_event ~pid:(vm + 1) e)));
  let events = Trace.ring_length ring in
  sp.events <- sp.events + events;
  sp.bytes <- sp.bytes + Buffer.length buf;
  (* [Engine.run] extrapolates to the profile's operation counts the same
     way; the CSV only needs the sampled columns to match. *)
  let total_target = float_of_int (p.W.Profile.total_mcycles * 1_000_000) in
  let ref_access = float_of_int (access_bytes / Hw.Addr.block_size * costs.Hw.Cost.dram_access) in
  let n_mem_ops = p.W.Profile.mem_stall_fraction *. total_target /. ref_access in
  let cycles =
    total_target -. (n_mem_ops *. ref_access) +. (n_mem_ops *. per_access)
    +. (float_of_int p.W.Profile.vmexits *. per_exit)
  in
  { W.Fleetbench.vm; profile = p.W.Profile.name; cycles = int_of_float cycles; per_access;
    per_exit; events }

let gc_per_vm (s : W.Fleetbench.summary) field =
  let per = List.map (fun (g : W.Fleetbench.gc_stats) -> field g /. float_of_int g.jobs) s.gc in
  List.fold_left ( +. ) 0.0 per /. float_of_int (List.length per)

(* Host seconds of the untraced program, accumulated over the rounds it
   is interleaved with the replay, so that a drift in host speed moves
   both sides of the overhead and residual alike. *)
type untraced = { mutable d1_s : float; mutable pool_s : float }

let fleet ~reference ~dir ~domains ~seconds =
  let n = Outputs.fleet_vms in
  let csv = Filename.concat dir "fleet.csv" and trace = Filename.concat dir "fleet_trace.json" in
  let stream d =
    Meter.timed (fun () -> W.Fleetbench.run_stream ~domains:d ~vms:n ~csv ~trace ())
  in
  let sp =
    { create = Meter.acc (); hv_boot = Meter.acc (); install = Meter.acc ();
      launch = Meter.acc (); access = Meter.acc (); exit = Meter.acc ();
      serialize = Meter.acc (); vm = Meter.acc (); merge = Meter.acc (); events = 0; bytes = 0 }
  in
  let base = { d1_s = 0.0; pool_s = 0.0 } in
  let gc1 = ref None and gcd = ref None in
  let spill = Filename.concat dir "replay.spill" in
  let attempted = ref 0 and failed = ref 0 and replay_s = ref 0.0 in
  let untraced () =
    let sd, dtd = stream domains in
    let s1, dt1 = stream 1 in
    base.pool_s <- base.pool_s +. dtd;
    base.d1_s <- base.d1_s +. dt1;
    gcd := Some sd;
    gc1 := Some s1;
    attempted := !attempted + (2 * n);
    if not (Outputs.matches reference (Outputs.fleet_values ~csv ~trace)) then
      failed := !failed + n;
    s1
  in
  (* Scheduled as [run_stream ~domains:1] schedules its jobs: one pool
     worker with a fresh arena, spilling each job's fragment as it ends. *)
  let replay () =
    let rows, dt =
      Meter.timed (fun () ->
          Pool.map_with ~domains:1 ~njobs:n
            ~init:(fun _ -> (W.Fleetbench.arena (), open_out_bin spill))
            ~finish:(fun _ (_, oc) -> close_out oc)
            (fun ((a : W.Fleetbench.arena), oc) vm ->
              Meter.span sp.vm (fun () ->
                  let row = fleet_vm sp ~mem:a.mem ~ring:a.ring ~buf:a.jbuf vm in
                  Buffer.output_buffer oc a.jbuf;
                  Trace.ring_reset a.ring;
                  row)))
    in
    replay_s := !replay_s +. dt;
    attempted := !attempted + n;
    rows
  in
  let replay_csv = Filename.concat dir "replay.csv"
  and replay_trace = Filename.concat dir "replay_trace.json" in
  repeat_for ~seconds (fun round ->
      let s1, replayed = paired round untraced replay in
      List.iter2
        (fun (got : W.Fleetbench.vm_row) (want : W.Fleetbench.vm_row) ->
          if got.per_access <> want.per_access || got.per_exit <> want.per_exit
             || got.events <> want.events
          then failed := !failed + mismatch (Printf.sprintf "fleet vm%d row" got.vm))
        replayed s1.W.Fleetbench.vm_rows;
      (* The replayed rows and fragments, merged as [run_stream] merges
         them, must be the program's artifacts byte for byte. *)
      let shards =
        List.map
          (fun (r : W.Fleetbench.vm_row) -> (Printf.sprintf "vm%d:%s" r.vm r.profile, r.events))
          replayed
      in
      Meter.span sp.merge (fun () ->
          Out_channel.with_open_bin replay_csv (fun oc ->
              output_string oc (W.Fleetbench.csv { W.Fleetbench.rows = replayed; shards = [] }));
          Merge.concat_spills ~out:replay_trace ~header:Merge.chrome_header
            ~footer:(Merge.chrome_footer ~shards ^ "\n") [ spill ]);
      if not (Outputs.matches reference (Outputs.fleet_values ~csv:replay_csv ~trace:replay_trace))
      then
        failed := !failed + mismatch "fleet merged replay artifacts");
  let per_vm a = a.Meter.ns /. float_of_int sp.vm.n /. 1e6 in
  let covered =
    List.fold_left (fun acc a -> acc +. per_vm a) 0.0
      [ sp.create; sp.hv_boot; sp.install; sp.launch; sp.access; sp.exit; sp.serialize;
        sp.merge ]
  in
  let vms = float_of_int sp.vm.n in
  let rate1 = vms /. base.d1_s and rated = vms /. base.pool_s in
  let e2e_ms = 1e3 /. rate1 in
  let s1 = Option.get !gc1 and sd = Option.get !gcd in
  { attempted = !attempted;
    failed = !failed;
    metrics =
      [ ("fleet.hw.machine_create_ms", Meter.mean_ms sp.create, "ms");
        ("fleet.hw.machine_create_minor_words", Meter.mean_words sp.create, "words");
        ("fleet.xen.hv_boot_ms", Meter.mean_ms sp.hv_boot, "ms");
        ("fleet.xen.hv_boot_minor_words", Meter.mean_words sp.hv_boot, "words");
        ("fleet.core.install_ms", Meter.mean_ms sp.install, "ms");
        ("fleet.core.install_minor_words", Meter.mean_words sp.install, "words");
        ("fleet.sev.launch_ms", Meter.mean_ms sp.launch, "ms");
        ("fleet.sev.launch_minor_words", Meter.mean_words sp.launch, "words");
        ("fleet.hw.guest_access_us", Meter.mean_us sp.access, "us");
        ("fleet.hw.guest_access_minor_words", Meter.mean_words sp.access, "words");
        ("fleet.hw.guest_accesses", float_of_int sp.access.n, "count");
        ("fleet.xen.void_hypercall_us", Meter.mean_us sp.exit, "us");
        ("fleet.obs.serialize_ms", Meter.mean_ms sp.serialize, "ms");
        ("fleet.obs.serialize_minor_words", Meter.mean_words sp.serialize, "words");
        ("fleet.obs.trace_events", float_of_int sp.events /. vms, "count");
        ("fleet.obs.trace_bytes", float_of_int sp.bytes /. vms, "bytes");
        ("fleet.vm_minor_words", Meter.mean_words sp.vm, "words");
        ("fleet.merge_ms", per_vm sp.merge, "ms");
        ("fleet.replayed_vms", vms, "count");
        ("fleet.vms_per_s_d1", rate1, "1/s");
        ("fleet.vms_per_s_pool", rated, "1/s");
        ("fleet.pool_efficiency", rated /. (float_of_int domains *. rate1), "ratio");
        ("fleet.gc.minor_words_per_vm_d1", gc_per_vm s1 (fun g -> g.minor_words), "words");
        ("fleet.gc.minor_words_per_vm_pool", gc_per_vm sd (fun g -> g.minor_words), "words");
        ( "fleet.gc.minor_collections_per_vm_d1",
          gc_per_vm s1 (fun g -> float_of_int g.minor_collections), "count" );
        ( "fleet.gc.minor_collections_per_vm_pool",
          gc_per_vm sd (fun g -> float_of_int g.minor_collections), "count" );
        ("fleet.residual_ms", e2e_ms -. covered, "ms");
        ("fleet.trace_overhead_ms", ((!replay_s *. 1e3) +. (sp.merge.ns /. 1e6)) /. vms -. e2e_ms, "ms") ] }

(* --- serve ------------------------------------------------------------- *)

type serve_spans = {
  boot : Meter.acc;  (** the whole protected-guest stack boot *)
  read : Meter.acc;
  write : Meter.acc;
  net : Meter.acc;
  codec : Meter.acc;
  mutable codec_bytes : int;
  request : Meter.acc;  (** one whole request, generator included *)
}

(* [Serve]'s stack constants. *)
let disk_sectors = 4096
let frame_bytes = 192

(* The benchmark's wrapper around the guest's AES-NI codec: the same
   encode/decode functions, timed. *)
let timed_codec sp (c : Xen.Blkif.codec) =
  let wrap f ~sector b =
    sp.codec_bytes <- sp.codec_bytes + Bytes.length b;
    Meter.span sp.codec (fun () -> f ~sector b)
  in
  { c with encode = wrap c.encode; decode = wrap c.decode }

type serve_stack = {
  machine : Hw.Machine.t;
  hv : Xen.Hypervisor.t;
  frontend : Xen.Blkif.frontend;
  backend : Xen.Blkif.backend;
  net_guest : Xen.Netif.endpoint;
  net_peer : Xen.Netif.endpoint;
  wire : Xen.Netif.wire;
}

let serve_boot sp seed =
  let machine = Hw.Machine.create ~seed () in
  let hv = Xen.Hypervisor.boot machine in
  let fid = Core.Fidelius.install hv in
  let rng = Rng.create (Int64.add seed 5L) in
  let prepared =
    Sev.Transport.Owner.prepare ~rng ~platform_public:(Core.Fidelius.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg ~kernel_pages:[ Bytes.make page '\000' ]
  in
  let dom =
    fail_on "serve boot"
      (Core.Fidelius.boot_protected_vm fid ~name:"serve" ~memory_pages:32 ~prepared)
  in
  let kblk = Core.Fidelius.kblk_of_guest fid dom in
  let disk = Xen.Vdisk.create ~nr_sectors:disk_sectors in
  let frontend, backend =
    fail_on "blkif connect"
      (Xen.Blkif.connect ~ring_size:32 ~buffer_pages:8 hv dom ~disk ~buffer_gvfn:100)
  in
  Xen.Blkif.set_codec frontend (timed_codec sp (Core.Fidelius.aesni_codec fid ~kblk));
  let wire = Xen.Netif.create_wire () in
  let net_guest = fail_on "guest netif" (Xen.Netif.connect hv dom ~wire ~buffer_gvfn:200) in
  let peer_dom = Xen.Hypervisor.create_domain hv ~name:"peer" ~memory_pages:8 in
  let net_peer = fail_on "peer netif" (Xen.Netif.connect hv peer_dom ~wire ~buffer_gvfn:50) in
  { machine; hv; frontend; backend; net_guest; net_peer; wire }

type kind = Blk_read | Blk_write | Net_exchange

let pick_kind (cfg : W.Serve.config) rng =
  if Rng.int rng 100 < cfg.net_fraction then Net_exchange
  else if Rng.int rng 2 = 0 then Blk_read
  else Blk_write

let payload len = Bytes.init len (fun i -> Char.chr (((i * 31) + 7) land 0xff))
let frame i = Bytes.init frame_bytes (fun j -> Char.chr ((i + (j * 13)) land 0xff))

let serve_batch sp st (cfg : W.Serve.config) rng kind =
  let spf = Xen.Blkif.sectors_per_frame in
  match kind with
  | Blk_read ->
      let sector = Rng.int rng (disk_sectors - (cfg.batch * spf)) in
      Meter.span sp.read (fun () ->
          ignore
            (fail_on "read"
               (Xen.Blkif.read_sectors ~batch:cfg.batch st.frontend ~sector
                  ~count:(cfg.batch * spf))))
  | Blk_write ->
      let sector = Rng.int rng (disk_sectors - (cfg.batch * spf)) in
      let data = payload (cfg.batch * spf * Xen.Vdisk.sector_size) in
      Meter.span sp.write (fun () ->
          fail_on "write" (Xen.Blkif.write_sectors ~batch:cfg.batch st.frontend ~sector data))
  | Net_exchange ->
      let reqs = List.init cfg.batch frame in
      Meter.span sp.net (fun () ->
          fail_on "net send" (Xen.Netif.send_batch st.net_guest reqs);
          let got = fail_on "net recv" (Xen.Netif.recv_batch st.net_peer) in
          if List.length got <> cfg.batch then failwith "serve: net exchange lost frames";
          fail_on "net reply" (Xen.Netif.send_batch st.net_peer got);
          let back = fail_on "net recv reply" (Xen.Netif.recv_batch st.net_guest) in
          if List.length back <> cfg.batch then failwith "serve: net reply lost frames")

(* [Serve.run], replayed: same boot, same calibration, same open-loop
   generator and the same report arithmetic. *)
let serve_run sp (cfg : W.Serve.config) =
  let cfg = { cfg with batch = max 1 (min 8 cfg.batch) } in
  let st = Meter.span sp.boot (fun () -> serve_boot sp cfg.seed) in
  let ledger = st.machine.Hw.Machine.ledger in
  let rng = Rng.create (Int64.add cfg.seed 17L) in
  let calib_kinds = [ Blk_read; Blk_write; Net_exchange; Blk_read ] in
  let c0 = Hw.Cost.total ledger in
  List.iter (fun k -> serve_batch sp st cfg rng k) calib_kinds;
  let mean_service =
    float_of_int (Hw.Cost.total ledger - c0) /. float_of_int (List.length calib_kinds * cfg.batch)
  in
  let gap = mean_service /. cfg.load in
  let groups = max 1 (cfg.requests / cfg.batch) in
  let completed = groups * cfg.batch in
  let latencies = Array.make completed 0.0 in
  let vmexit0 = fst (Xen.Hypervisor.stats st.hv) in
  let notif0 = Xen.Blkif.notifications st.backend in
  let clock = ref 0.0 and arrival = ref 0.0 and idx = ref 0 in
  for _ = 1 to groups do
    Meter.span sp.request (fun () ->
        let arrivals =
          Array.init cfg.batch (fun _ ->
              let jitter = 0.5 +. (float_of_int (Rng.int rng 1001) /. 1000.0) in
              arrival := !arrival +. (gap *. jitter);
              !arrival)
        in
        let start = Float.max !clock arrivals.(cfg.batch - 1) in
        let b0 = Hw.Cost.total ledger in
        serve_batch sp st cfg rng (pick_kind cfg rng);
        clock := start +. float_of_int (Hw.Cost.total ledger - b0);
        Array.iter
          (fun a ->
            latencies.(!idx) <- !clock -. a;
            incr idx)
          arrivals)
  done;
  let hypercalls = fst (Xen.Hypervisor.stats st.hv) - vmexit0 in
  let blk_notifications = Xen.Blkif.notifications st.backend - notif0 in
  Array.sort compare latencies;
  let to_us c = c /. 1000.0 in
  let pct p = to_us (Meter.percentile latencies p) in
  ( { W.Serve.batch = cfg.batch;
      completed;
      rps = float_of_int completed /. (!clock /. 1e9);
      p50_us = pct 0.50;
      p90_us = pct 0.90;
      p99_us = pct 0.99;
      mean_service_cycles = mean_service;
      hypercalls;
      blk_notifications;
      net_frames = Xen.Netif.frames_forwarded st.wire },
    Xen.Blkif.requests_rejected st.backend )

let latency_metrics prefix a =
  let s = Meter.samples_us a in
  let p, v = match Meter.tail s with Some t -> t | None -> (1.0, Meter.percentile s 1.0) in
  [ (prefix ^ "_us_p50", Meter.percentile s 0.5, "us");
    (prefix ^ "_us_tail", v, "us");
    (prefix ^ "_tail_pct", 100.0 *. p, "%");
    (prefix ^ "s", float_of_int a.Meter.n, "count") ]

let serve ~seed ~seconds =
  let cfg = Outputs.serve_config seed in
  let sp =
    { boot = Meter.acc (); read = Meter.acc (); write = Meter.acc (); net = Meter.acc ();
      codec = Meter.acc (); codec_bytes = 0; request = Meter.acc () }
  in
  let failed = ref 0 and attempted = ref 0 and rejected = ref 0 and runs = ref 0 in
  let untraced_s = ref 0.0 and traced_s = ref 0.0 and last = ref None in
  repeat_for ~seconds (fun round ->
      attempted := !attempted + (2 * cfg.requests);
      let (program, dt0), ((r, rej), dt) =
        paired round
          (fun () -> Meter.timed (fun () -> W.Serve.run cfg))
          (fun () -> Meter.timed (fun () -> serve_run sp cfg))
      in
      untraced_s := !untraced_s +. dt0;
      traced_s := !traced_s +. dt;
      incr runs;
      rejected := !rejected + rej;
      last := Some r;
      if r <> program then failed := !failed + mismatch "serve report differs from Serve.run");
  let r = Option.get !last in
  let runs = float_of_int !runs in
  let untraced_s = !untraced_s /. runs in
  let per_req s = s *. 1e3 /. float_of_int r.completed in
  let covered =
    (sp.boot.ns +. sp.read.ns +. sp.write.ns +. sp.net.ns) /. 1e6 /. runs
    /. float_of_int r.completed
  in
  { attempted = !attempted;
    failed = !failed + !rejected;
    metrics =
      latency_metrics "serve.xen.blk_read" sp.read
      @ latency_metrics "serve.xen.blk_write" sp.write
      @ latency_metrics "serve.xen.net_exchange" sp.net
      @ [ ("serve.crypto.codec_us", sp.codec.ns /. 1e3 /. (float_of_int sp.codec_bytes /. float_of_int page), "us");
          ("serve.crypto.codec_pages", float_of_int sp.codec_bytes /. float_of_int page /. runs, "count");
          ("serve.xen.world_switches", float_of_int r.hypercalls, "count");
          ("serve.xen.doorbells", float_of_int r.blk_notifications, "count");
          ("serve.xen.ring_rejected", float_of_int !rejected, "count");
          ("serve.xen.net_frames", float_of_int r.net_frames, "count");
          ("serve.boot_ms", Meter.mean_ms sp.boot, "ms");
          ("serve.request_minor_words", Meter.mean_words sp.request, "words");
          ("serve.req_per_s_untraced", float_of_int r.completed /. untraced_s, "1/s");
          ("serve.residual_ms", per_req untraced_s -. covered, "ms");
          ("serve.trace_overhead_ms", per_req (!traced_s /. runs) -. per_req untraced_s, "ms") ] }

(* --- migrate ----------------------------------------------------------- *)

type migrate_spans = {
  m_create : Meter.acc;
  m_hv_boot : Meter.acc;
  m_install : Meter.acc;
  m_launch : Meter.acc;
  live_self : Meter.acc;  (** [migrate_live] minus its [mutate] callbacks *)
  guest_write : Meter.acc;
  job : Meter.acc;
  mutable rounds : int;
  mutable pages : int;
  mutable releases : int;
}

(* [Migratebench]'s job seed: a stable FNV-1a hash of the job identity. *)
let migrate_seed vm =
  let identity = Printf.sprintf "migratebench/vm%d/%.3f" vm Outputs.migrate_budget_us in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    identity;
  Int64.add (Int64.logand !h 0x3fffffffffffffffL) 17L

let migrate_memory_pages = 16

let migrate_vm sp vm =
  let budget_us = Outputs.migrate_budget_us in
  let seed = migrate_seed vm in
  let host s =
    let m = Meter.span sp.m_create (fun () -> Hw.Machine.create ~seed:s ()) in
    let hv = Meter.span sp.m_hv_boot (fun () -> Xen.Hypervisor.boot m) in
    (m, hv, Meter.span sp.m_install (fun () -> Core.Fidelius.install hv))
  in
  let m1, hv1, fid1 = host seed in
  let _, _, fid2 = host (Int64.add seed 7L) in
  let rng = Rng.create (Int64.add seed 77L) in
  let dom =
    Meter.span sp.m_launch (fun () ->
        let prepared =
          Sev.Transport.Owner.prepare ~rng ~platform_public:(Core.Fidelius.platform_key fid1)
            ~policy:Sev.Firmware.policy_nodbg
            ~kernel_pages:[ Bytes.make page 'K'; Bytes.make page 'L' ]
        in
        fail_on "migrate boot"
          (Core.Fidelius.boot_protected_vm fid1 ~name:(Printf.sprintf "mig%d" vm)
             ~memory_pages:migrate_memory_pages ~prepared))
  in
  let w0 = migrate_memory_pages / 2 in
  let mutate round =
    let w = min (max 1 (w0 lsr round)) (migrate_memory_pages - 1) in
    for p = 1 to w do
      let data = Bytes.of_string (Printf.sprintf "round %d touch" round) in
      Meter.span sp.guest_write (fun () ->
          Xen.Hypervisor.in_guest hv1 dom (fun () ->
              Xen.Domain.write m1 dom ~addr:(Hw.Addr.addr_of p 0) data))
    done
  in
  let owner = Core.Migrate.Owner.create (Rng.create (Int64.add seed 99L)) in
  let config = { Core.Migrate.downtime_budget_us = budget_us; max_rounds = 8 } in
  let g = sp.guest_write in
  let n0 = g.n and ns0 = g.ns and words0 = g.words in
  let res, ns, words =
    Meter.measure (fun () -> Core.Migrate.migrate_live ~config ~owner ~mutate ~src:fid1 ~dst:fid2 dom)
  in
  (* Self time: the callback spans were recorded net of span overhead,
     so add that overhead back before subtracting them. *)
  let inner = float_of_int (g.n - n0) in
  Meter.record sp.live_self
    ~ns:(ns -. (g.ns -. ns0) -. (inner *. !Meter.overhead_ns))
    ~words:(words -. (g.words -. words0) -. (inner *. !Meter.overhead_words));
  match res with
  | Error e -> failwith ("migrate: " ^ Core.Migrate.error_to_string e)
  | Ok (dom', rep) ->
      sp.rounds <- sp.rounds + rep.Core.Migrate.rounds;
      sp.pages <- sp.pages + rep.Core.Migrate.pages_sent;
      sp.releases <- sp.releases + Core.Migrate.Owner.release_count owner;
      { W.Migratebench.vm;
        budget_us;
        rounds = rep.Core.Migrate.rounds;
        pages_sent = rep.Core.Migrate.pages_sent;
        residual_pages = rep.Core.Migrate.residual_pages;
        downtime_us = rep.Core.Migrate.downtime_us;
        key_delivered =
          Core.Migrate.Owner.released owner
          && Bytes.equal (Core.Fidelius.kblk_of_guest fid2 dom') (Core.Migrate.Owner.disk_key owner) }

let migrate ~reference ~domains ~seconds =
  let n = Outputs.migrate_vms in
  let run d =
    Meter.timed (fun () ->
        W.Migratebench.run ~domains:d ~vms:n ~budget_us:Outputs.migrate_budget_us ())
  in
  let sp =
    { m_create = Meter.acc (); m_hv_boot = Meter.acc (); m_install = Meter.acc ();
      m_launch = Meter.acc (); live_self = Meter.acc (); guest_write = Meter.acc ();
      job = Meter.acc (); rounds = 0; pages = 0; releases = 0 }
  in
  let base = { d1_s = 0.0; pool_s = 0.0 } in
  let attempted = ref 0 and failed = ref 0 in
  let untraced () =
    let _, dtd = run domains in
    let program, dt1 = run 1 in
    base.pool_s <- base.pool_s +. dtd;
    base.d1_s <- base.d1_s +. dt1;
    attempted := !attempted + (2 * n);
    if not (Outputs.matches reference (Outputs.migrate_values program)) then
      failed := !failed + n;
    program
  in
  let replay_s = ref 0.0 in
  let replay () =
    let rows, dt =
      Meter.timed (fun () ->
          Pool.map ~domains:1 ~njobs:n (fun vm -> Meter.span sp.job (fun () -> migrate_vm sp vm)))
    in
    replay_s := !replay_s +. dt;
    attempted := !attempted + n;
    rows
  in
  repeat_for ~seconds (fun round ->
      let program, rows = paired round untraced replay in
      List.iter2
        (fun (got : W.Migratebench.row) (want : W.Migratebench.row) ->
          if got <> want then
            failed := !failed + mismatch (Printf.sprintf "migrate vm%d row" got.vm))
        rows program.rows;
      if not (Outputs.matches reference (Outputs.migrate_values { W.Migratebench.rows })) then
        failed := !failed + mismatch "migrate replay csv");
  let jobs = float_of_int sp.job.n in
  let per_job a = a.Meter.ns /. jobs /. 1e6 in
  let covered =
    List.fold_left (fun acc a -> acc +. per_job a) 0.0
      [ sp.m_create; sp.m_hv_boot; sp.m_install; sp.m_launch; sp.live_self; sp.guest_write ]
  in
  let rate1 = jobs /. base.d1_s and rated = jobs /. base.pool_s in
  let e2e_ms = 1e3 /. rate1 in
  { attempted = !attempted;
    failed = !failed;
    metrics =
      [ ("migrate.hw.machine_create_ms", Meter.mean_ms sp.m_create, "ms");
        ("migrate.xen.hv_boot_ms", Meter.mean_ms sp.m_hv_boot, "ms");
        ("migrate.core.install_ms", Meter.mean_ms sp.m_install, "ms");
        ("migrate.sev.launch_ms", Meter.mean_ms sp.m_launch, "ms");
        ("migrate.core.migrate_live_ms", Meter.mean_ms sp.live_self, "ms");
        ("migrate.core.migrate_live_minor_words", Meter.mean_words sp.live_self, "words");
        ("migrate.xen.guest_write_us", Meter.mean_us sp.guest_write, "us");
        ("migrate.xen.guest_writes", float_of_int sp.guest_write.n /. jobs, "count");
        ("migrate.core.precopy_rounds", float_of_int sp.rounds /. jobs, "count");
        ("migrate.core.pages_sent", float_of_int sp.pages /. jobs, "count");
        ("migrate.core.key_releases", float_of_int sp.releases /. jobs, "count");
        ("migrate.vm_minor_words", Meter.mean_words sp.job, "words");
        ("migrate.replayed_vms", jobs, "count");
        ("migrate.vms_per_s_d1", rate1, "1/s");
        ("migrate.vms_per_s_pool", rated, "1/s");
        ("migrate.pool_efficiency", rated /. (float_of_int domains *. rate1), "ratio");
        ("migrate.residual_ms", e2e_ms -. covered, "ms");
        ("migrate.trace_overhead_ms", (!replay_s *. 1e3 /. jobs) -. e2e_ms, "ms") ] }
