(* SEV SEND_* on the source firmware, framed as a single-round migration
   stream: the Start frame, the round-0 pages and the Finish frame the
   live driver would deliver. Shared by the tests that feed
   [Migrate.rx_deliver] directly. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Wire = Fidelius_core.Migrate.Wire

let get = function Ok v -> v | Error e -> failwith e

let single_round fw (dom : Xen.Domain.t) ~target_public =
  let handle = Option.get dom.Xen.Domain.sev_handle in
  let nonce = 5L in
  let wrapped_keys = get (Sev.Firmware.send_start fw ~handle ~target_public ~nonce) in
  let pages =
    Hw.Pagetable.mapped_frames dom.Xen.Domain.npt
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (gfn, (npte : Hw.Pagetable.proto)) ->
           (gfn, get (Sev.Firmware.send_update fw ~handle ~index:gfn ~src_pfn:npte.Hw.Pagetable.frame)))
  in
  let measurement = get (Sev.Firmware.send_finish fw ~handle) in
  ( Wire.Start
      { name = dom.Xen.Domain.name;
        memory_pages = List.length pages;
        policy = Sev.Firmware.policy_nodbg;
        nonce;
        wrapped_keys;
        origin_public = Sev.Firmware.platform_public fw },
    pages,
    Wire.Finish { measurement; gpt_entries = Hw.Pagetable.mapped_frames dom.Xen.Domain.gpt } )
