module Trace = Fidelius_obs.Trace

type table = {
  dram_access : int;
  enc_extra : int;
  cache_hit : int;
  cacheline_write : int;
  tlb_flush_full : int;
  tlb_flush_entry : int;
  tlb_miss_walk : int;
  wp_toggle : int;
  irq_mask_toggle : int;
  stack_switch : int;
  sanity_check : int;
  vmexit : int;
  vmrun : int;
  vmcb_field_copy : int;
  hypercall_base : int;
  pit_lookup : int;
  git_lookup : int;
  aesni_block : int;
  sev_engine_block : int;
  sw_aes_block : int;
  memcpy_block : int;
  io_sector : int;
  event_channel : int;
  firmware_cmd : int;
  firmware_page : int;
  gate1 : int;
  gate2 : int;
  gate3 : int;
  shadow_roundtrip : int;
}

(* Calibration notes.
   - Gates: type 1 = wp_toggle*2 + irq_mask_toggle + stack_switch + sanity
     = 120 + 36 + 60 + 90 = 306 (paper: 306).
   - Type 2 = sanity-only checking loop = 16 (paper: 16).
   - Type 3 = pte write (cacheline_write) + tlb_flush_entry + sanity + map
     bookkeeping = 339 with flush 128 and write <2 (paper: 339/128/<2).
   - Shadow+check round trip of a void hypercall = vmcb copy+mask+compare
     at both boundaries, paper: 661; we charge vmcb_field_copy per field
     over the shadowed field set, sized to land there.
   - The 512 MB copy micro-benchmark: AES-NI adds ~11.5% over memcpy,
     SEV engine ~8.7%, software AES > 20x (paper Section 7.2). *)
let default = {
  dram_access = 160;
  enc_extra = 40;
  cache_hit = 4;
  cacheline_write = 1;
  tlb_flush_full = 1200;
  tlb_flush_entry = 128;
  tlb_miss_walk = 80;
  wp_toggle = 60;
  irq_mask_toggle = 36;
  stack_switch = 60;
  sanity_check = 16;
  vmexit = 1000;
  vmrun = 800;
  vmcb_field_copy = 7;
  hypercall_base = 150;
  pit_lookup = 24;
  git_lookup = 18;
  aesni_block = 1115;
  sev_engine_block = 1087;
  sw_aes_block = 21000;
  memcpy_block = 1000;
  io_sector = 12000;
  event_channel = 400;
  firmware_cmd = 5000;
  firmware_page = 2500;
  gate1 = 306;
  gate2 = 16;
  gate3 = 339;
  shadow_roundtrip = 661;
}

(* ---- category interning ----------------------------------------------

   Category labels are resolved once to dense int ids, so the per-access
   [charge_id] is two array adds instead of string-hashed table lookups. The
   registry is global (labels mean the same thing in every ledger) and
   effectively frozen after module init: the mutex only matters for the
   rare dynamically-built label, and readers get the label array through
   an atomic so fleet worker domains always see a fully-published copy. *)

type id = int

let registry_lock = Mutex.create ()
let registry : (string, int) Hashtbl.t = Hashtbl.create 64
let labels : string array Atomic.t = Atomic.make [||]

let intern name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some id -> id
      | None ->
          let id = Hashtbl.length registry in
          Hashtbl.add registry name id;
          let old = Atomic.get labels in
          let arr =
            if id < Array.length old then old
            else begin
              let a = Array.make (max 16 (2 * (id + 1))) "" in
              Array.blit old 0 a 0 (Array.length old);
              a
            end
          in
          arr.(id) <- name;
          Atomic.set labels arr;
          id)

let id_label id = (Atomic.get labels).(id)

let nr_ids () = Mutex.protect registry_lock (fun () -> Hashtbl.length registry)

(* ---- ledger ----------------------------------------------------------

   Flat arrays indexed by interned id, for categories and scopes alike.
   [touched]/[entered] mark ids charged/entered, so 0-cycle rows still
   list. [scope_enter] sizes [scoped] for the id it pushes, so the hot
   [charge_id] books the innermost scope with one array add. *)

type ledger = {
  mutable cycles : int;
  mutable counts : int array;
  mutable touched : Bytes.t;
  mutable scoped : int array;
  mutable entered : Bytes.t;
  mutable stack : id array;
  mutable depth : int;
  mutable top : id;  (* valid iff depth > 0 *)
}

let root_scope = "(root)"
let root_id = intern root_scope

let ledger () =
  let n = max 16 (nr_ids ()) in
  { cycles = 0;
    counts = Array.make n 0;
    touched = Bytes.make n '\000';
    scoped = Array.make n 0;
    entered = Bytes.make n '\000';
    stack = Array.make 8 root_id;
    depth = 0;
    top = root_id }

let grow_counts counts id =
  let a = Array.make (max 16 (2 * (id + 1))) 0 in
  Array.blit counts 0 a 0 (Array.length counts);
  a

let grow_touched touched id =
  let b = Bytes.make (max 16 (2 * (id + 1))) '\000' in
  Bytes.blit touched 0 b 0 (Bytes.length touched);
  b

let negative_charge id n =
  invalid_arg (Printf.sprintf "Cost.charge_id: negative charge %d to %S" n (id_label id))

let charge_id l id n =
  if n < 0 then negative_charge id n;
  if id >= Array.length l.counts then begin
    l.counts <- grow_counts l.counts id;
    l.touched <- grow_touched l.touched id
  end;
  l.cycles <- l.cycles + n;
  Array.unsafe_set l.counts id (Array.unsafe_get l.counts id + n);
  Bytes.unsafe_set l.touched id '\001';
  if l.depth > 0 then Array.unsafe_set l.scoped l.top (Array.unsafe_get l.scoped l.top + n)

(* The only scope stack: each push and pop sets the trace's scope tag to
   the new innermost label ("" at depth 0). *)
let scope_enter l id =
  if id = root_id then invalid_arg "Cost.scope_enter: (root) is reserved";
  if id >= Array.length l.scoped then begin
    l.scoped <- grow_counts l.scoped id;
    l.entered <- grow_touched l.entered id
  end;
  Bytes.unsafe_set l.entered id '\001';
  if l.depth >= Array.length l.stack then begin
    let a = Array.make (2 * Array.length l.stack) root_id in
    Array.blit l.stack 0 a 0 l.depth;
    l.stack <- a
  end;
  Array.unsafe_set l.stack l.depth id;
  l.depth <- l.depth + 1;
  l.top <- id;
  Trace.set_scope (id_label id)

let scope_exit l =
  if l.depth > 0 then begin
    l.depth <- l.depth - 1;
    if l.depth > 0 then l.top <- Array.unsafe_get l.stack (l.depth - 1);
    Trace.set_scope (if l.depth > 0 then id_label l.top else "")
  end

let total l = l.cycles

let category l cat =
  match Mutex.protect registry_lock (fun () -> Hashtbl.find_opt registry cat) with
  | None -> 0
  | Some id -> if id < Array.length l.counts then l.counts.(id) else 0

(* Descending by cycles; ties broken on the label so the order never
   depends on hash-table iteration. *)
let sort_counts counts =
  List.sort
    (fun (ka, a) (kb, b) -> if a <> b then compare b a else compare ka kb)
    counts

(* Rebuild a (label, cycles) listing from a flat accumulator, visiting
   only the marked ids. Report-time only. *)
let rows counts marks =
  let acc = ref [] in
  for id = Array.length counts - 1 downto 0 do
    if Bytes.get marks id = '\001' then
      acc := (id_label id, counts.(id)) :: !acc
  done;
  !acc

let categories l = sort_counts (rows l.counts l.touched)

let scopes l =
  let named = rows l.scoped l.entered in
  let rest = l.cycles - List.fold_left (fun acc (_, v) -> acc + v) 0 named in
  sort_counts (if rest > 0 || named = [] then (root_scope, rest) :: named else named)

let pp fmt l =
  Format.fprintf fmt "@[<v>total: %d cycles" l.cycles;
  List.iter (fun (k, v) -> Format.fprintf fmt "@,  %-24s %12d" k v) (categories l);
  Format.fprintf fmt "@]"
