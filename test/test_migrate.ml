(* Live migration with attested secret injection: pre-copy convergence
   under a downtime budget, the pages-sent/downtime trade-off, the wire
   format's typed refusals, and — the load-bearing one — the firmware
   rollback ("Insecure Until Proven Updated") being refused with a typed
   error on both the Fidelius and the plain-SEV stack, with the owner's
   disk key provably never released. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Fid = Core.Fidelius
module Hv = Xen.Hypervisor
module Domain = Xen.Domain
module Rng = Fidelius_crypto.Rng
module Keywrap = Fidelius_crypto.Keywrap
module Site = Fidelius_inject.Site
module Plan = Fidelius_inject.Plan
module Migrate = Core.Migrate
module Attest = Core.Attest
module Migratebench = Fidelius_workloads.Migratebench

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let page c = Bytes.make Hw.Addr.page_size c

let installed ?(seed = 91L) () =
  let m = Hw.Machine.create ~seed () in
  let hv = Hv.boot m in
  let fid = Fid.install hv in
  (m, hv, fid)

let memory_pages = 16

let protected_vm fid name =
  let rng = Rng.create 92L in
  let prepared =
    Sev.Transport.Owner.prepare ~rng ~platform_public:(Fid.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg
      ~kernel_pages:[ page 'A'; page 'B'; page 'C' ]
  in
  ok (Fid.boot_protected_vm fid ~name ~memory_pages ~prepared)

let with_installed plan f =
  Plan.install plan;
  Fun.protect ~finally:Plan.uninstall f

(* Both hosts plus a running guest with a runtime secret beyond the kernel
   image, and a halving-working-set mutator for the pre-copy loop. *)
let live_pair () =
  let m1, hv1, fid1 = installed ~seed:91L () in
  let dom = protected_vm fid1 "traveller" in
  Hv.in_guest hv1 dom (fun () ->
      Domain.write m1 dom ~addr:0xC000 (Bytes.of_string "runtime state"));
  let m2, hv2, fid2 =
    let m = Hw.Machine.create ~seed:92L () in
    let hv = Hv.boot m in
    (m, hv, Fid.install hv)
  in
  let mutate round =
    let w = min (max 1 ((memory_pages / 2) lsr round)) (memory_pages - 1) in
    for p = 1 to w do
      Hv.in_guest hv1 dom (fun () ->
          Domain.write m1 dom ~addr:(Hw.Addr.addr_of p 0)
            (Bytes.of_string (Printf.sprintf "dirty r%d" round)))
    done
  in
  let owner = Migrate.Owner.create (Rng.create 93L) in
  (m1, hv1, fid1, dom, m2, hv2, fid2, mutate, owner)

(* --- live round trip ----------------------------------------------------- *)

let test_live_roundtrip () =
  let _, hv1, fid1, dom, m2, hv2, fid2, mutate, owner = live_pair () in
  let config = { Migrate.downtime_budget_us = 10.; max_rounds = 8 } in
  let dom', rep = ok (Result.map_error Migrate.error_to_string
    (Migrate.migrate_live ~config ~owner ~mutate ~src:fid1 ~dst:fid2 dom)) in
  Alcotest.(check bool) "several dirty rounds ran" true (rep.Migrate.rounds > 2);
  Alcotest.(check bool) "resends happened" true
    (rep.Migrate.pages_sent > memory_pages + 3);
  Alcotest.(check bool) "downtime within budget" true
    (rep.Migrate.downtime_us <= config.Migrate.downtime_budget_us);
  Alcotest.(check bool) "source destroyed" true (Hv.find_domain hv1 dom.Domain.domid = None);
  let b = Hv.in_guest hv2 dom' (fun () -> Domain.read m2 dom' ~addr:0xC000 ~len:13) in
  Alcotest.(check string) "runtime state survives" "runtime state" (Bytes.to_string b);
  let k = Hv.in_guest hv2 dom' (fun () -> Domain.read m2 dom' ~addr:0x2100 ~len:4) in
  Alcotest.(check string) "kernel survives" "CCCC" (Bytes.to_string k);
  Alcotest.(check bool) "secret released" true rep.Migrate.secret_released;
  Alcotest.(check int) "released exactly once" 1 (Migrate.Owner.release_count owner);
  Alcotest.(check bytes) "disk key delivered to the guest's kblk slot"
    (Migrate.Owner.disk_key owner)
    (Fid.kblk_of_guest fid2 dom')

let test_monotone_budget_tradeoff () =
  let run budget =
    let _, _, fid1, dom, _, _, fid2, mutate, owner = live_pair () in
    let config = { Migrate.downtime_budget_us = budget; max_rounds = 8 } in
    let _, rep = ok (Result.map_error Migrate.error_to_string
      (Migrate.migrate_live ~config ~owner ~mutate ~src:fid1 ~dst:fid2 dom)) in
    rep
  in
  let tight = run 2.5 and mid = run 10. and loose = run 40. in
  (* Tighter budget → more pre-copy rounds → more total pages on the wire,
     but less downtime. Strictly monotone for the halving working set. *)
  Alcotest.(check bool) "pages: tight > mid" true
    (tight.Migrate.pages_sent > mid.Migrate.pages_sent);
  Alcotest.(check bool) "pages: mid > loose" true
    (mid.Migrate.pages_sent > loose.Migrate.pages_sent);
  Alcotest.(check bool) "downtime: tight <= mid" true
    (tight.Migrate.downtime_us <= mid.Migrate.downtime_us);
  Alcotest.(check bool) "downtime: mid <= loose" true
    (mid.Migrate.downtime_us <= loose.Migrate.downtime_us)

(* --- rollback refusal ---------------------------------------------------- *)

let test_rollback_refused_fidelius () =
  let _, hv1, fid1, dom, _, hv2, fid2, mutate, owner = live_pair () in
  with_installed
    (Plan.make ~seed:5L [ Plan.always Site.Stale_firmware ])
    (fun () ->
      match Migrate.migrate_live ~owner ~mutate ~src:fid1 ~dst:fid2 dom with
      | Error (Migrate.Stale_firmware { got; minimum }) ->
          Alcotest.(check bool) "reported version is below the floor" true
            (Sev.Firmware.version_compare got minimum < 0)
      | Error e -> Alcotest.fail ("expected Stale_firmware, got " ^ Migrate.error_to_string e)
      | Ok _ -> Alcotest.fail "rolled-back platform was accepted");
  Alcotest.(check bool) "disk key never released" false (Migrate.Owner.released owner);
  Alcotest.(check int) "release count is zero" 0 (Migrate.Owner.release_count owner);
  (* The cut-over was cancelled: the source keeps running, the target
     instance is gone. *)
  Alcotest.(check bool) "source still alive" true (Hv.find_domain hv1 dom.Domain.domid <> None);
  Alcotest.(check bool) "source resumed" true (dom.Domain.state = Domain.Runnable);
  Alcotest.(check bool) "target instance destroyed" true
    (Hv.find_domain hv2 1 = None || not (Fid.is_protected fid2 1))

let test_rollback_refused_plain_sev () =
  (* Stock SEV, no Fidelius layer: the hypervisor reloads a vulnerable
     blob, then quotes. The platform identity survives the downgrade, so
     the MAC is genuine — only the version policy check can refuse. *)
  let m = Hw.Machine.create ~seed:95L () in
  let hv = Hv.boot m in
  let fw = hv.Hv.fw in
  let owner = Migrate.Owner.create (Rng.create 96L) in
  Sev.Firmware.load_blob fw Sev.Firmware.vulnerable_version;
  let xen_measurement = Bytes.make 32 '\000' in
  let q = Attest.quote_fw fw ~xen_measurement ~nonce:17L () in
  (match
     Attest.verify
       ~attestation_key:(Sev.Firmware.attestation_key fw)
       ~expected_xen_measurement:xen_measurement ~nonce:17L q
   with
  | Error (Attest.Stale_firmware { got; minimum }) ->
      Alcotest.(check bool) "typed refusal names the downgrade" true
        (Sev.Firmware.version_compare got minimum < 0)
  | Error e -> Alcotest.fail ("expected Stale_firmware, got " ^ Attest.error_to_string e)
  | Ok () -> Alcotest.fail "rolled-back plain-SEV platform was accepted");
  (* The owner's release gate never opened. *)
  Alcotest.(check bool) "disk key never released" false (Migrate.Owner.released owner)

let test_current_firmware_quote_accepted () =
  let m = Hw.Machine.create ~seed:97L () in
  let hv = Hv.boot m in
  let fw = hv.Hv.fw in
  let xen_measurement = Bytes.make 32 '\000' in
  let q = Attest.quote_fw fw ~xen_measurement ~nonce:18L () in
  Alcotest.(check bool) "current firmware verifies" true
    (Result.is_ok
       (Attest.verify
          ~attestation_key:(Sev.Firmware.attestation_key fw)
          ~expected_xen_measurement:xen_measurement ~nonce:18L q))

(* --- wire-format refusals ------------------------------------------------ *)

let test_unknown_wire_version () =
  let wrapped_keys = Keywrap.wrap ~kek:(Bytes.make 32 'k') (Bytes.make 48 's') in
  let frame =
    Migrate.Wire.encode
      (Migrate.Wire.Start
         { name = "v"; memory_pages = 4; policy = 0; nonce = 1L; wrapped_keys;
           origin_public = 2L })
  in
  Bytes.set_uint16_be frame 4 (Migrate.Wire.version + 1);
  (match Migrate.Wire.decode frame with
  | Error (Migrate.Unknown_version { got; expected }) ->
      Alcotest.(check int) "reports the foreign version" (Migrate.Wire.version + 1) got;
      Alcotest.(check int) "reports its own version" Migrate.Wire.version expected
  | Error e -> Alcotest.fail ("expected Unknown_version, got " ^ Migrate.error_to_string e)
  | Ok _ -> Alcotest.fail "foreign wire version was accepted")

let test_wire_roundtrip () =
  let wrapped_keys = Keywrap.wrap ~kek:(Bytes.make 32 'k') (Bytes.make 48 's') in
  let frame =
    Migrate.Wire.Start
      { name = "traveller"; memory_pages = 16; policy = 1; nonce = 99L; wrapped_keys;
        origin_public = 7L }
  in
  (match Migrate.Wire.decode (Migrate.Wire.encode frame) with
  | Ok (Migrate.Wire.Start s) ->
      Alcotest.(check string) "name" "traveller" s.name;
      Alcotest.(check int) "memory_pages" 16 s.memory_pages;
      Alcotest.(check int64) "nonce" 99L s.nonce
  | _ -> Alcotest.fail "START did not round-trip");
  let update =
    Migrate.Wire.Update
      { round = 3;
        pages = [ (Migrate.index_of ~round:3 ~gfn:5, page 'x'); (Migrate.index_of ~round:3 ~gfn:9, page 'y') ] }
  in
  match Migrate.Wire.decode (Migrate.Wire.encode update) with
  | Ok (Migrate.Wire.Update u) ->
      Alcotest.(check int) "round" 3 u.round;
      Alcotest.(check (list int)) "gfns derived from measured indices" [ 5; 9 ]
        (List.map (fun (i, _) -> Migrate.gfn_of_index i) u.pages)
  | _ -> Alcotest.fail "UPDATE did not round-trip"

let test_secret_before_attest_refused () =
  let _, _, fid1, dom, _, _, fid2, mutate, owner = live_pair () in
  with_installed
    (Plan.make ~seed:6L [ Plan.always Site.Secret_before_attest ])
    (fun () ->
      match Migrate.migrate_live ~owner ~mutate ~src:fid1 ~dst:fid2 dom with
      | Error (Migrate.Protocol_violation _) -> ()
      | Error e ->
          Alcotest.fail ("expected Protocol_violation, got " ^ Migrate.error_to_string e)
      | Ok _ -> Alcotest.fail "secret-before-attest was accepted");
  Alcotest.(check bool) "disk key never released" false (Migrate.Owner.released owner)

let test_round_truncate_rejected () =
  let _, _, fid1, dom, _, _, fid2, mutate, owner = live_pair () in
  with_installed
    (Plan.make ~seed:7L [ Plan.always Site.Round_truncate ])
    (fun () ->
      (* The frame is re-framed consistently after the drop, so no length
         check can notice — only the keyed measurement at RECEIVE_FINISH. *)
      match Migrate.migrate_live ~owner ~mutate ~src:fid1 ~dst:fid2 dom with
      | Error (Migrate.Rejected _) -> ()
      | Error e -> Alcotest.fail ("expected Rejected, got " ^ Migrate.error_to_string e)
      | Ok _ -> Alcotest.fail "surgically truncated round was accepted");
  Alcotest.(check bool) "disk key never released" false (Migrate.Owner.released owner)

let test_out_of_order_frame_refused () =
  let _, _, _fid1, _dom, _, _, fid2, _mutate, _owner = live_pair () in
  let rx = Migrate.rx_create fid2 in
  let update = Migrate.Wire.encode (Migrate.Wire.Update { round = 0; pages = [] }) in
  match Migrate.rx_deliver rx update with
  | Error (Migrate.Protocol_violation _) -> ()
  | Error e -> Alcotest.fail ("expected Protocol_violation, got " ^ Migrate.error_to_string e)
  | Ok _ -> Alcotest.fail "UPDATE before START was accepted"

(* A START frame's memory claim is untrusted: an empty claim, or one the
   target cannot back, is refused with a typed error before the target
   allocates anything or marks the next domain protected. *)
let test_hostile_start_refused () =
  let _, hv1, fid1, dom, m2, _, fid2, mutate, owner = live_pair () in
  let start, _, _ =
    Send_frames.single_round hv1.Hv.fw
      (protected_vm fid1 "decoy")
      ~target_public:(Fid.platform_key fid2)
  in
  let free = Hw.Machine.frames_free m2 in
  let protected_before = fid2.Core.Ctx.protected_domids in
  List.iter
    (fun memory_pages ->
      let frame =
        match start with
        | Migrate.Wire.Start s -> Migrate.Wire.Start { s with memory_pages }
        | _ -> assert false
      in
      match Migrate.rx_deliver (Migrate.rx_create fid2) (Migrate.Wire.encode frame) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "START claiming %d pages was accepted" memory_pages)
    [ 1_000_000; 0x7fffffff; 0 ];
  Alcotest.(check int) "no frame taken" free (Hw.Machine.frames_free m2);
  Alcotest.(check bool) "next domain not marked protected" false
    fid2.Core.Ctx.next_domain_protected;
  Alcotest.(check (list int)) "protected domains unchanged" protected_before
    fid2.Core.Ctx.protected_domids;
  match Migrate.migrate_live ~owner ~mutate ~src:fid1 ~dst:fid2 dom with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("migration after the refusals: " ^ Migrate.error_to_string e)

(* The receiver is total. Real frames of every kind, with
   one to four bytes overwritten and optionally cut short, are decoded
   and then delivered in sequence to the one target; any outcome but an
   exception is fine. A guest that completes is shut down again so the
   target does not fill up across cases. *)
let n_frames = 5

let fuzz_target =
  lazy
    (let _, hv1, fid1, _, _, _, fid2, _, _ = live_pair () in
     let start, pages, finish =
       Send_frames.single_round hv1.Hv.fw
         (protected_vm fid1 "fuzzed")
         ~target_public:(Fid.platform_key fid2)
     in
     let secret = Keywrap.wrap ~kek:(Bytes.make 32 'k') (Bytes.make 16 'd') in
     ( fid2,
       Array.map Migrate.Wire.encode
         [| start;
            Migrate.Wire.Update { round = 0; pages };
            finish;
            Migrate.Wire.Attest_req { nonce = 3L };
            Migrate.Wire.Secret { wrapped = Keywrap.to_bytes secret } |] ))

let test_receiver_total =
  let gen =
    QCheck.Gen.(
      let* victim = int_bound (n_frames - 1) in
      (* Half the edits land in the first 64 bytes, where the framing
         and the small fields live; the rest anywhere in the frame. *)
      let* edits = list_size (int_range 1 4) (triple bool nat (int_bound 255)) in
      let* cut = opt nat in
      return (victim, edits, cut))
  in
  let print (victim, edits, cut) =
    Printf.sprintf "frame %d, edits [%s], cut %s" victim
      (String.concat "; "
         (List.map (fun (head, pos, v) -> Printf.sprintf "%b:%d=%d" head pos v) edits))
      (match cut with None -> "none" | Some c -> string_of_int c)
  in
  QCheck.Test.make ~name:"receiver is total under byte mutation" ~count:250
    (QCheck.make ~print gen)
    (fun (victim, edits, cut) ->
      let fid2, frames = Lazy.force fuzz_target in
      let b = Bytes.copy frames.(victim) in
      List.iter
        (fun (head, pos, v) ->
          let span = if head then min 64 (Bytes.length b) else Bytes.length b in
          Bytes.set_uint8 b (pos mod span) v)
        edits;
      let b =
        match cut with None -> b | Some c -> Bytes.sub b 0 (c mod (Bytes.length b + 1))
      in
      ignore (Migrate.Wire.decode b);
      let rx = Migrate.rx_create fid2 in
      Array.iteri
        (fun i f -> ignore (Migrate.rx_deliver rx (if i = victim then b else f)))
        frames;
      Option.iter (Core.Lifecycle.shutdown_protected_vm fid2) (Migrate.rx_domain rx);
      true)

(* --- fleet determinism --------------------------------------------------- *)

let test_fleet_determinism () =
  let csv domains = Migratebench.csv (Migratebench.run ~domains ~vms:4 ~budget_us:10. ()) in
  Alcotest.(check string) "d1 and d2 byte-identical" (csv 1) (csv 2)

let test_fleet_keys_delivered () =
  let t = Migratebench.run ~domains:2 ~vms:4 ~budget_us:10. () in
  Alcotest.(check bool) "every migration delivered its disk key" true
    (Migratebench.all_keys_delivered t)

(* At the Migratebench level, with its own mutator: some VM takes real
   pre-copy rounds, and a tight downtime budget sends more pages than a
   loose one. *)
let test_fleet_budget_tradeoff () =
  let tight = Migratebench.run ~domains:1 ~vms:4 ~budget_us:2.5 () in
  let loose = Migratebench.run ~domains:1 ~vms:4 ~budget_us:40.0 () in
  Alcotest.(check bool) "some migration took more than two pre-copy rounds" true
    (List.exists (fun r -> r.Migratebench.rounds > 2) tight.Migratebench.rows);
  let pt = Migratebench.total_pages tight and pl = Migratebench.total_pages loose in
  Alcotest.(check bool)
    (Printf.sprintf "pages @2.5us (%d) > pages @40us (%d)" pt pl)
    true (pt > pl);
  Alcotest.(check bool) "every migration delivered its disk key" true
    (Migratebench.all_keys_delivered tight && Migratebench.all_keys_delivered loose)

let () =
  Alcotest.run "migrate"
    [ ( "live",
        [ Alcotest.test_case "round trip with dirty rounds" `Quick test_live_roundtrip;
          Alcotest.test_case "pages-vs-downtime monotone" `Quick test_monotone_budget_tradeoff
        ] );
      ( "rollback",
        [ Alcotest.test_case "fidelius refusal, key withheld" `Quick
            test_rollback_refused_fidelius;
          Alcotest.test_case "plain-SEV refusal, key withheld" `Quick
            test_rollback_refused_plain_sev;
          Alcotest.test_case "current firmware accepted" `Quick
            test_current_firmware_quote_accepted
        ] );
      ( "wire",
        [ Alcotest.test_case "unknown version refused" `Quick test_unknown_wire_version;
          Alcotest.test_case "frame round-trip" `Quick test_wire_roundtrip;
          Alcotest.test_case "secret before attest refused" `Quick
            test_secret_before_attest_refused;
          Alcotest.test_case "surgical round truncation rejected" `Quick
            test_round_truncate_rejected;
          Alcotest.test_case "out-of-order frame refused" `Quick
            test_out_of_order_frame_refused;
          Alcotest.test_case "hostile START refused" `Quick test_hostile_start_refused;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 15 |])
            test_receiver_total
        ] );
      ( "fleet",
        [ Alcotest.test_case "deterministic at any domain count" `Quick
            test_fleet_determinism;
          Alcotest.test_case "all keys delivered" `Quick test_fleet_keys_delivered;
          Alcotest.test_case "bench pre-copy rounds and budget trade-off" `Quick
            test_fleet_budget_tradeoff
        ] )
    ]
