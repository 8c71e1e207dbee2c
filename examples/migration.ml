(* Protected VM live migration between two physical machines
   (paper Section 4.3.6).

   Memory crosses the (attacker-observable) wire as Ktek ciphertext in
   pre-copy rounds while the guest keeps running; the target re-encrypts
   under a fresh Kvek and verifies the keyed measurement before the guest
   resumes. A relay that flips one ciphertext bit is refused.

     dune exec examples/migration.exe *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Fid = Core.Fidelius
module Migrate = Core.Migrate
module Rng = Fidelius_crypto.Rng
module Plan = Fidelius_inject.Plan
module Site = Fidelius_inject.Site

let platform seed =
  let machine = Hw.Machine.create ~seed () in
  let hv = Xen.Hypervisor.boot machine in
  let fid = Fid.install hv in
  (machine, hv, fid)

let traveller (m, hv, fid) =
  let rng = Rng.create 9L in
  let prepared =
    Sev.Transport.Owner.prepare ~rng ~platform_public:(Fid.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg
      ~kernel_pages:[ Bytes.make Hw.Addr.page_size 'K' ]
  in
  let dom =
    match Fid.boot_protected_vm fid ~name:"traveller" ~memory_pages:16 ~prepared with
    | Ok d -> d
    | Error e -> failwith e
  in
  Xen.Hypervisor.in_guest hv dom (fun () ->
      Xen.Domain.write m dom ~addr:0xC000 (Bytes.of_string "in-memory session state"));
  dom

let () =
  let ((_, hv1, fid1) as src) = platform 51L in
  let m2, hv2, fid2 = platform 52L in
  print_endline "two SEV platforms booted, Fidelius installed on both";
  let dom = traveller src in
  print_endline "guest running on machine 1 with runtime state in encrypted memory";

  (* The guest keeps writing while pre-copy rounds are on the wire (a
     halving working set of pages 1..8); the dirty log tells the driver
     what to resend. *)
  let mutate round =
    for p = 1 to max 1 (8 lsr round) do
      Xen.Hypervisor.in_guest hv1 dom (fun () ->
          Xen.Domain.write hv1.Xen.Hypervisor.machine dom ~addr:(Hw.Addr.addr_of p 0)
            (Bytes.of_string (Printf.sprintf "dirty in round %d" round)))
    done
  in
  let dom', report =
    match Migrate.migrate_live ~mutate ~src:fid1 ~dst:fid2 dom with
    | Ok r -> r
    | Error e -> failwith (Migrate.error_to_string e)
  in
  Printf.printf "live migration: %d rounds, %d pages sent, %d residual, downtime %.1fus\n"
    report.Migrate.rounds report.Migrate.pages_sent report.Migrate.residual_pages
    report.Migrate.downtime_us;
  let state =
    Xen.Hypervisor.in_guest hv2 dom' (fun () ->
        Xen.Domain.read m2 dom' ~addr:0xC000 ~len:23)
  in
  Printf.printf "machine 2 guest dom%d resumes with state: %S\n" dom'.Xen.Domain.domid
    (Bytes.to_string state);
  Printf.printf "protected on target: %b\n" (Fid.is_protected fid2 dom'.Xen.Domain.domid);

  (* A hostile relay flips one ciphertext bit in every UPDATE frame: the
     target's measurement check refuses the stream. *)
  let ((_, _, fid3) as src) = platform 53L in
  let _, _, fid4 = platform 54L in
  let dom = traveller src in
  Plan.install (Plan.make ~seed:3L [ Plan.always Site.Snapshot_flip ]);
  let tampered =
    Fun.protect ~finally:Plan.uninstall (fun () -> Migrate.migrate_live ~src:fid3 ~dst:fid4 dom)
  in
  match tampered with
  | Error (Migrate.Rejected _ as e) ->
      Printf.printf "bit-flipped stream refused: %s\n" (Migrate.error_to_string e)
  | Error e ->
      Printf.printf "!!! bit-flipped stream refused for the wrong reason: %s\n"
        (Migrate.error_to_string e);
      exit 1
  | Ok _ ->
      print_endline "!!! bit-flipped stream accepted";
      exit 1
