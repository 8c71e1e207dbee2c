(* fidelius-sim: command-line front-end to the simulator.

     fidelius_sim demo              full life-cycle walkthrough
     fidelius_sim attacks [--id X]  security matrix (or one attack)
     fidelius_sim xsa               quantitative XSA analysis
     fidelius_sim bench SUITE       workload overheads (spec|parsec|fio|serve)
     fidelius_sim trace demo        record an event trace of a scenario
     fidelius_sim inject matrix     differential fault-injection matrix
     fidelius_sim inspect           post-install system inventory
     fidelius_sim migrate           live migration + attested key release demo *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Fid = Core.Fidelius
module W = Fidelius_workloads
module Attacks = Fidelius_attacks
module Xsa = Fidelius_xsa
module Obs = Fidelius_obs
module Rng = Fidelius_crypto.Rng
open Cmdliner

let seed_arg =
  let doc = "Deterministic seed for the simulated platform." in
  Arg.(value & opt int64 2026L & info [ "seed" ] ~docv:"SEED" ~doc)

let domains_arg =
  let doc =
    "Worker domains to shard independent runs across (default: the runtime's \
     recommended count). Results are identical for any value — see SCALING.md."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let stack_on machine =
  let hv = Xen.Hypervisor.boot machine in
  let fid = Fid.install hv in
  (machine, hv, fid)

let stack seed = stack_on (Hw.Machine.create ~seed ())

let boot_guest fid name pages =
  let rng = Rng.create 77L in
  let prepared =
    Sev.Transport.Owner.prepare ~rng ~platform_public:(Fid.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg
      ~kernel_pages:[ Bytes.make Hw.Addr.page_size '\000' ]
  in
  match Fid.boot_protected_vm fid ~name ~memory_pages:pages ~prepared with
  | Ok d -> d
  | Error e -> failwith e

(* --- demo ------------------------------------------------------------------ *)

(* The demo scenario doubles as the trace recording workload, so the
   narration is routed through [say] and muted under [quiet]. *)
let run_demo_scenario ?(quiet = false) machine =
  let say fmt = if quiet then Printf.ifprintf stdout fmt else Printf.printf fmt in
  let mark label = if Obs.Trace.enabled () then Obs.Trace.emit (Obs.Trace.Mark label) in
  let machine, hv, fid = stack_on machine in
  say "platform up: %d frames of DRAM, SEV firmware initialized\n"
    (Hw.Physmem.nr_frames machine.Hw.Machine.mem);
  mark "platform-up";
  let dom = boot_guest fid "demo-tenant" 24 in
  say "protected guest dom%d booted from encrypted image\n" dom.Xen.Domain.domid;
  mark "guest-booted";
  Xen.Hypervisor.in_guest hv dom (fun () ->
      Xen.Domain.write machine dom ~addr:0x5000 (Bytes.of_string "demo secret"));
  (match Hw.Pagetable.lookup dom.Xen.Domain.npt 5 with
  | Some npte -> (
      try
        ignore (Xen.Hypervisor.host_read hv npte.Hw.Pagetable.frame ~off:0 ~len:11);
        say "hypervisor read the secret (!!)\n"
      with Hw.Mmu.Fault _ -> say "hypervisor denied access to guest memory\n")
  | None -> ());
  ignore (Xen.Hypervisor.hypercall hv dom (Xen.Hypercall.Console_write "hello from the tenant"));
  say "guest console: %S\n" (Xen.Hypervisor.console hv dom.Xen.Domain.domid);
  say "\n";
  say "%s" (Fid.attestation_report fid);
  let ve, npf = Xen.Hypervisor.stats hv in
  say "vmexits=%d nested-page-faults=%d total-cycles=%d\n" ve npf
    (Hw.Cost.total machine.Hw.Machine.ledger);
  mark "scenario-done"

let demo seed =
  run_demo_scenario (Hw.Machine.create ~seed ());
  `Ok ()

let demo_cmd =
  let term = Term.(ret (const demo $ seed_arg)) in
  Cmd.v (Cmd.info "demo" ~doc:"Boot a protected guest and exercise the life cycle") term

(* --- attacks ---------------------------------------------------------------- *)

let attacks id seed domains =
  match id with
  | None -> (
      let rows = Attacks.Runner.run_all ~seed ?domains () in
      Format.printf "%a@." Attacks.Runner.pp_table rows;
      match Attacks.Runner.errors rows with
      | [] -> `Ok ()
      | errs ->
          List.iter
            (fun (id, stack, msg) ->
              Printf.eprintf "harness error: %s on %s: %s\n" id stack msg)
            errs;
          `Error (false, Printf.sprintf "%d attack run(s) errored" (List.length errs)))
  | Some id -> (
      match Attacks.Suite.find id with
      | None ->
          `Error
            (false,
             Printf.sprintf "unknown attack %S; known: %s" id
               (String.concat ", "
                  (List.map (fun a -> a.Attacks.Surface.id) Attacks.Suite.all)))
      | Some attack ->
          let row = Attacks.Runner.run_one ~seed attack in
          Printf.printf "%s — %s (paper %s)\n" attack.Attacks.Surface.id
            attack.Attacks.Surface.description attack.Attacks.Surface.paper_ref;
          Printf.printf "  plain SEV: %s\n"
            (Attacks.Surface.outcome_to_string row.Attacks.Runner.baseline);
          Printf.printf "  fidelius:  %s\n"
            (Attacks.Surface.outcome_to_string row.Attacks.Runner.fidelius);
          `Ok ())

let attacks_cmd =
  let id =
    Arg.(value & opt (some string) None & info [ "id" ] ~docv:"ATTACK" ~doc:"Run one attack only.")
  in
  let term = Term.(ret (const attacks $ id $ seed_arg $ domains_arg)) in
  Cmd.v (Cmd.info "attacks" ~doc:"Run the security-analysis attack catalogue") term

(* --- xsa --------------------------------------------------------------------- *)

let xsa verbose =
  Format.printf "%a@." Xsa.Report.pp (Xsa.Report.compute ());
  if verbose then begin
    print_newline ();
    List.iter
      (fun r ->
        Printf.printf "XSA-%-4d %-10s %-22s %s\n    -> %s\n" r.Xsa.Db.xsa
          (Xsa.Db.component_to_string r.Xsa.Db.component)
          (Xsa.Db.category_to_string r.Xsa.Db.category)
          r.Xsa.Db.title (Xsa.Classify.why r))
      Xsa.Db.all
  end;
  `Ok ()

let xsa_cmd =
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"List every advisory with its rationale.")
  in
  let term = Term.(ret (const xsa $ verbose)) in
  Cmd.v (Cmd.info "xsa" ~doc:"Quantitative XSA analysis (paper Section 6.2)") term

(* --- bench ------------------------------------------------------------------- *)

let pp_counts label counts =
  Printf.printf "    %-12s %s\n" label
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts))

let bench suite breakdown =
  (match suite with
  | "spec" | "parsec" ->
      let profiles = if suite = "spec" then W.Spec2006.all else W.Parsec.all in
      Printf.printf "%-15s %12s %16s\n" "benchmark" "Fidelius" "Fidelius-enc";
      (* Same three runs [Engine.run_suite] performs, kept by hand so the
         per-run ledgers are available for --breakdown. *)
      let rows =
        List.map
          (fun p ->
            let base = W.Engine.run p W.Engine.Xen_baseline in
            let fid = W.Engine.run p W.Engine.Fidelius in
            let enc = W.Engine.run p W.Engine.Fidelius_enc in
            (p, W.Engine.overhead_pct ~base fid, W.Engine.overhead_pct ~base enc, enc))
          profiles
      in
      let n = float_of_int (List.length rows) in
      let sf, se =
        List.fold_left
          (fun (a, b) (p, f, e, enc) ->
            Printf.printf "%-15s %+11.2f%% %+15.2f%%\n" p.W.Profile.name f e;
            if breakdown then begin
              pp_counts "cycles:" enc.W.Engine.breakdown;
              pp_counts "scopes:" enc.W.Engine.attribution
            end;
            (a +. f, b +. e))
          (0.0, 0.0) rows
      in
      Printf.printf "%-15s %+11.2f%% %+15.2f%%\n" "AVERAGE" (sf /. n) (se /. n)
  | "fio" ->
      if breakdown then
        prerr_endline "note: --breakdown applies to the sampled suites (spec|parsec) only";
      Printf.printf "%-12s %14s %16s %10s\n" "operation" "Xen" "Fidelius" "slowdown";
      List.iter
        (fun r ->
          Printf.printf "%-12s %10.1f %s %12.1f %s %8.2f%%\n" r.W.Fio.pattern.W.Fio.pat_name
            r.W.Fio.xen_rate r.W.Fio.pattern.W.Fio.unit_name r.W.Fio.fidelius_rate
            r.W.Fio.pattern.W.Fio.unit_name r.W.Fio.slowdown_pct)
        (W.Fio.table ())
  | "serve" ->
      if breakdown then
        prerr_endline "note: --breakdown applies to the sampled suites (spec|parsec) only";
      (* Simulated-time sweep only; the wall-clock ring-throughput numbers
         (sync vs batched doorbells) come from `bench/main.exe serve`,
         which links a timer. *)
      Printf.printf "%6s %10s %10s %10s %10s %12s %10s\n" "batch" "req/s" "p50 us" "p90 us"
        "p99 us" "hypercalls" "blk-doorb";
      List.iter
        (fun b ->
          let r = W.Serve.run { W.Serve.default_config with W.Serve.batch = b } in
          Printf.printf "%6d %10.0f %10.1f %10.1f %10.1f %12d %10d\n" r.W.Serve.batch
            r.W.Serve.rps r.W.Serve.p50_us r.W.Serve.p90_us r.W.Serve.p99_us
            r.W.Serve.hypercalls r.W.Serve.blk_notifications)
        [ 1; 2; 4; 8 ]
  | other -> Printf.eprintf "unknown suite %S (spec|parsec|fio|serve)\n" other);
  `Ok ()

let bench_cmd =
  let suite =
    Arg.(value & pos 0 string "spec" & info [] ~docv:"SUITE" ~doc:"spec, parsec, fio or serve.")
  in
  let breakdown =
    Arg.(
      value & flag
      & info [ "breakdown" ]
          ~doc:"After each row, print the Fidelius-enc run's ledger categories and per-scope attribution.")
  in
  let term = Term.(ret (const bench $ suite $ breakdown)) in
  Cmd.v (Cmd.info "bench" ~doc:"Workload overheads (Figures 5/6, Table 3)") term

(* --- trace -------------------------------------------------------------------- *)

let sum_counts counts = List.fold_left (fun acc (_, v) -> acc + v) 0 counts

(* Self-check the exported artifact: reparse it with the library's own
   parser and re-verify from the parsed bytes that attribution sums to
   the ledger total and that every event's category is "platform" or an
   attributed scope (the trace's scope tags come from the ledger's own
   scope stack), so a formatting or attribution bug fails the command
   (and the trace-smoke alias) rather than producing a silently broken
   file. *)
let validate_chrome content ~total =
  match Obs.Json.parse content with
  | exception Obs.Json.Parse_error e -> Error ("output is not valid JSON: " ^ e)
  | json -> (
      match Obs.Json.member "traceEvents" json with
      | Some (Obs.Json.Arr (_ :: _ as events)) -> (
          let other = Obs.Json.member "otherData" json in
          let att =
            Option.bind other (fun o -> Obs.Json.member "attribution" o)
          in
          match att with
          | Some (Obs.Json.Obj fields) -> (
              let s =
                List.fold_left
                  (fun acc (_, v) ->
                    match v with Obs.Json.Int n -> acc + n | _ -> acc)
                  0 fields
              in
              let known_cat ev =
                match Obs.Json.member "cat" ev with
                | Some (Obs.Json.Str c) -> c = "platform" || List.mem_assoc c fields
                | _ -> false
              in
              if s <> total then
                Error
                  (Printf.sprintf "attribution sums to %d, ledger total is %d" s total)
              else
                match List.find_opt (fun ev -> not (known_cat ev)) events with
                | Some ev ->
                    Error
                      ("event category is neither \"platform\" nor an attributed scope: "
                     ^ Obs.Json.to_string ev)
                | None -> Ok (List.length events))
          | _ -> Error "otherData.attribution missing")
      | _ -> Error "traceEvents missing or empty")

let validate_jsonl content =
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' content)
  in
  if lines = [] then Error "no events recorded"
  else
    let rec check n = function
      | [] -> Ok n
      | l :: rest -> (
          match Obs.Json.parse l with
          | exception Obs.Json.Parse_error e ->
              Error (Printf.sprintf "line %d is not valid JSON: %s" (n + 1) e)
          | json ->
              if Obs.Json.member "seq" json = None || Obs.Json.member "name" json = None
              then Error (Printf.sprintf "line %d lacks seq/name" (n + 1))
              else check (n + 1) rest)
    in
    check 0 lines

let trace scenario out format seed =
  match scenario with
  | "demo" -> (
      let machine = Hw.Machine.create ~seed () in
      let ledger = machine.Hw.Machine.ledger in
      let ring = Obs.Trace.ring () in
      Obs.Trace.record_into ring
        ~clock:(fun () -> Hw.Cost.total ledger)
        (fun () -> run_demo_scenario ~quiet:true machine);
      let attribution = Hw.Cost.scopes ledger in
      let total = Hw.Cost.total ledger in
      let content, validation =
        match format with
        | "chrome" ->
            let c = Obs.Trace.chrome_of_ring ~attribution ~total_cycles:total ring ^ "\n" in
            (c, validate_chrome c ~total)
        | "jsonl" ->
            let c = Obs.Trace.jsonl_of (Obs.Trace.ring_entries ring) in
            (c, validate_jsonl c)
        | other -> ("", Error (Printf.sprintf "unknown format %S (chrome|jsonl)" other))
      in
      match validation with
      | Error e -> `Error (false, "trace: " ^ e)
      | Ok events ->
          let dir = Filename.dirname out in
          if dir <> "." && dir <> "" && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          Out_channel.with_open_bin out (fun oc -> output_string oc content);
          Printf.printf
            "trace: %d events recorded (%d dropped), %d cycles attributed across %d scopes -> %s\n"
            events (Obs.Trace.ring_dropped ring) (sum_counts attribution)
            (List.length attribution) out;
          `Ok ())
  | other -> `Error (false, Printf.sprintf "unknown scenario %S (only: demo)" other)

let trace_cmd =
  let scenario =
    Arg.(value & pos 0 string "demo" & info [] ~docv:"SCENARIO" ~doc:"Scenario to record (demo).")
  in
  let out =
    Arg.(
      value
      & opt string (Filename.concat "results" "trace.json")
      & info [ "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let format =
    Arg.(
      value & opt string "chrome"
      & info [ "format" ] ~docv:"FMT"
          ~doc:"chrome (trace_event JSON for about://tracing) or jsonl (one event per line).")
  in
  let term = Term.(ret (const trace $ scenario $ out $ format $ seed_arg)) in
  Cmd.v
    (Cmd.info "trace" ~doc:"Record a structured event trace of a scenario with cycle attribution")
    term

(* --- inspect ------------------------------------------------------------------ *)

let inspect seed =
  let machine, hv, fid = stack seed in
  let dom = boot_guest fid "inspect" 8 in
  Printf.printf "host space id: %d, cr3: %d\n"
    (Hw.Pagetable.id hv.Xen.Hypervisor.host_space)
    (Hw.Cpu.cr3 machine.Hw.Machine.cpu);
  Printf.printf "xen text frames: %s\n"
    (String.concat " " (List.map (Printf.sprintf "0x%x") hv.Xen.Hypervisor.xen_text));
  Printf.printf "fidelius text: %s  vmrun page: 0x%x  cr3 page: 0x%x\n"
    (String.concat " " (List.map (Printf.sprintf "0x%x") fid.Core.Ctx.fid_text))
    fid.Core.Ctx.vmrun_page fid.Core.Ctx.cr3_page;
  Printf.printf "PIT radix pages: %d  GIT frames: %d\n"
    (List.length (Core.Pit.tree_frames fid.Core.Ctx.pit))
    (List.length (Core.Git_table.backing_frames fid.Core.Ctx.git));
  List.iter
    (fun op ->
      Printf.printf "%-10s instances: %s\n" (Hw.Insn.op_to_string op)
        (String.concat " "
           (List.map (Printf.sprintf "0x%x") (Hw.Insn.instances machine.Hw.Machine.insns op))))
    Hw.Insn.all_ops;
  Printf.printf "protected guest dom%d: %d frames, PIT usage counts: guest-page=%d guest-npt=%d\n"
    dom.Xen.Domain.domid
    (List.length dom.Xen.Domain.frames)
    (Core.Pit.count_usage fid.Core.Ctx.pit Core.Pit.Guest_page)
    (Core.Pit.count_usage fid.Core.Ctx.pit Core.Pit.Guest_npt);
  Format.printf "cycle ledger:@.%a@." Hw.Cost.pp machine.Hw.Machine.ledger;
  `Ok ()

let inspect_cmd =
  let term = Term.(ret (const inspect $ seed_arg)) in
  Cmd.v (Cmd.info "inspect" ~doc:"Dump the post-install system inventory") term

(* --- inject ------------------------------------------------------------------- *)

let inject_matrix seed domains sites =
  let module Matrix = Fidelius_inject_matrix.Matrix in
  let module Site = Fidelius_inject.Site in
  match
    List.fold_left
      (fun acc name ->
        match acc with
        | Error _ as e -> e
        | Ok sites -> (
            match Site.of_string name with
            | Some s -> Ok (s :: sites)
            | None -> Error name))
      (Ok []) sites
  with
  | Error name ->
      `Error
        ( false,
          Printf.sprintf "unknown fault site %S (known: %s)" name
            (String.concat " " (List.map Site.to_string Site.all)) )
  | Ok chosen ->
      let sites = if chosen = [] then Site.all else List.rev chosen in
      let report = Matrix.run ~seed ?domains ~sites () in
      Format.printf "%a@." Matrix.pp_table report;
      if Matrix.fidelius_clean report then `Ok ()
      else
        `Error
          ( false,
            "fault matrix: the Fidelius column shows silent corruption or a harness error" )

let inject_cmd =
  let sites =
    Arg.(
      value & opt_all string []
      & info [ "site" ] ~docv:"SITE"
          ~doc:"Fault site to include (repeatable); default is all sites.")
  in
  let matrix =
    let term = Term.(ret (const inject_matrix $ seed_arg $ domains_arg $ sites)) in
    Cmd.v
      (Cmd.info "matrix"
         ~doc:
           "Differential fault matrix: every fault site against plain SEV and Fidelius; exits \
            nonzero if the Fidelius column shows silent corruption or a harness error")
      term
  in
  Cmd.group (Cmd.info "inject" ~doc:"Deterministic fault injection") [ matrix ]

(* --- quote -------------------------------------------------------------------- *)

let quote seed nonce =
  let machine, hv, fid = stack seed in
  ignore machine;
  let dom = boot_guest fid "attested" 8 in
  let q = Core.Attest.quote fid ~guest:dom ~nonce () in
  Printf.printf "platform quote (nonce %Ld):\n" nonce;
  Printf.printf "  hypervisor text: %s\n"
    (Fidelius_crypto.Sha256.hex q.Core.Attest.xen_measurement);
  Printf.printf "  firmware:        %s\n"
    (Sev.Firmware.version_to_string q.Core.Attest.fw_version);
  Printf.printf "  guest domid:     %s\n"
    (match q.Core.Attest.guest_domid with Some d -> string_of_int d | None -> "-");
  Printf.printf "  MAC:             %s\n" (Fidelius_crypto.Sha256.hex q.Core.Attest.mac);
  let akey = Sev.Firmware.attestation_key hv.Xen.Hypervisor.fw in
  (match
     Core.Attest.verify ~attestation_key:akey
       ~expected_xen_measurement:q.Core.Attest.xen_measurement ~nonce q
   with
  | Ok () -> print_endline "  verifier: quote ACCEPTED"
  | Error e -> Printf.printf "  verifier: REJECTED (%s)\n" (Core.Attest.error_to_string e));
  `Ok ()

let quote_cmd =
  let nonce =
    Arg.(value & opt int64 1L & info [ "nonce" ] ~docv:"NONCE" ~doc:"Verifier anti-replay nonce.")
  in
  let term = Term.(ret (const quote $ seed_arg $ nonce)) in
  Cmd.v (Cmd.info "quote" ~doc:"Produce and verify a remote-attestation quote") term

(* --- migrate ------------------------------------------------------------------ *)

(* Live-migration walkthrough: a pre-copy migration between two simulated
   hosts with attested secret injection, then the rollback scenario — the
   destination quoting from a downgraded firmware blob — refused with the
   typed error and the disk key provably withheld. *)
let migrate seed budget_us =
  let machine1, hv1, fid1 = stack seed in
  let dom = boot_guest fid1 "traveller" 16 in
  Xen.Hypervisor.in_guest hv1 dom (fun () ->
      Xen.Domain.write machine1 dom ~addr:0xC000 (Bytes.of_string "runtime state"));
  let _machine2, hv2, fid2 = stack (Int64.add seed 1L) in
  let mutate round =
    let w = max 1 (8 lsr round) in
    for p = 1 to w do
      Xen.Hypervisor.in_guest hv1 dom (fun () ->
          Xen.Domain.write machine1 dom ~addr:(Hw.Addr.addr_of p 0)
            (Bytes.of_string (Printf.sprintf "dirty r%d" round)))
    done
  in
  let owner = Core.Migrate.Owner.create (Rng.create (Int64.add seed 2L)) in
  let config = { Core.Migrate.downtime_budget_us = budget_us; max_rounds = 8 } in
  Printf.printf "live migration, downtime budget %.1fus (%d-page stop-and-copy residual):\n"
    budget_us (Core.Migrate.budget_pages config);
  match Core.Migrate.migrate_live ~config ~owner ~mutate ~src:fid1 ~dst:fid2 dom with
  | Error e -> `Error (false, "migration failed: " ^ Core.Migrate.error_to_string e)
  | Ok (dom', rep) ->
      Printf.printf "  rounds:      %d (%d pages sent, residual %d)\n" rep.Core.Migrate.rounds
        rep.Core.Migrate.pages_sent rep.Core.Migrate.residual_pages;
      Printf.printf "  downtime:    %.1fus\n" rep.Core.Migrate.downtime_us;
      Printf.printf "  attestation: firmware %s accepted, disk key released %d time(s)\n"
        (Sev.Firmware.version_to_string (Sev.Firmware.version hv2.Xen.Hypervisor.fw))
        (Core.Migrate.Owner.release_count owner);
      Printf.printf "  guest dom%d now runs on the destination host (key %s)\n"
        dom'.Xen.Domain.domid
        (if Bytes.equal (Fid.kblk_of_guest fid2 dom') (Core.Migrate.Owner.disk_key owner)
         then "delivered intact"
         else "MISSING");
      (* Rollback: fresh pair, but the destination firmware is downgraded
         to a vulnerable-but-genuine blob before it quotes. *)
      let _, _, fid3 = stack (Int64.add seed 3L) in
      let dom3 = boot_guest fid3 "traveller2" 16 in
      let _, hv4, fid4 = stack (Int64.add seed 4L) in
      Sev.Firmware.load_blob hv4.Xen.Hypervisor.fw Sev.Firmware.vulnerable_version;
      let owner2 = Core.Migrate.Owner.create (Rng.create (Int64.add seed 5L)) in
      Printf.printf "\nrollback scenario: destination firmware downgraded to %s:\n"
        (Sev.Firmware.version_to_string Sev.Firmware.vulnerable_version);
      (match Core.Migrate.migrate_live ~config ~owner:owner2 ~src:fid3 ~dst:fid4 dom3 with
      | Ok _ -> `Error (false, "rollback scenario: vulnerable platform was ACCEPTED")
      | Error e ->
          Printf.printf "  owner refused: %s\n" (Core.Migrate.error_to_string e);
          Printf.printf "  disk key released: %b (release count %d)\n"
            (Core.Migrate.Owner.released owner2)
            (Core.Migrate.Owner.release_count owner2);
          Printf.printf "  source guest still running on the origin host: %b\n"
            (dom3.Xen.Domain.state = Xen.Domain.Runnable);
          `Ok ())

let migrate_cmd =
  let budget =
    Arg.(value & opt float 10.0
         & info [ "budget" ] ~docv:"US"
             ~doc:"Downtime budget in microseconds; decides when pre-copy stops and the \
                   residual is stop-and-copied.")
  in
  let term = Term.(ret (const migrate $ seed_arg $ budget)) in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:
         "Live-migrate a protected guest between two simulated hosts with attested secret \
          injection, then show the firmware-rollback refusal")
    term

(* --- cpu-features ------------------------------------------------------------- *)

(* Report which crypto backends CPUID selected, so bench.json deltas are
   interpretable across machines. The self-test of those backends is the
   test suite's [aes-backend] and [golden] groups (`make crypto-selftest`). *)
let cpu_features () =
  let module Aes = Fidelius_crypto.Aes in
  Printf.printf "cpu features:   %s\n" (String.concat " " (Aes.cpu_features ()));
  Printf.printf "aes backend:    %s\n" (Aes.backend ());
  Printf.printf "sha256 backend: %s\n" Fidelius_crypto.Sha256.backend

let cpu_features_cmd =
  let term = Term.(const cpu_features $ const ()) in
  Cmd.v
    (Cmd.info "cpu-features" ~doc:"Report the CPUID-selected AES/SHA crypto backends")
    term

let main_cmd =
  let doc = "Fidelius: comprehensive VM protection against an untrusted hypervisor (HPCA'18), simulated" in
  Cmd.group (Cmd.info "fidelius_sim" ~version:"1.0.0" ~doc)
    [ demo_cmd; attacks_cmd; xsa_cmd; bench_cmd; trace_cmd; inject_cmd; inspect_cmd; quote_cmd;
      migrate_cmd; cpu_features_cmd ]

let () = exit (Cmd.eval main_cmd)
