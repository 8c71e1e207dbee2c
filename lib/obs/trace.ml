type event =
  | Vmrun of { domid : int }
  | Vmexit of { domid : int; reason : string }
  | Npf of { domid : int; gfn : int }
  | Hypercall of string
  | Gate of int
  | Shadow_capture of string
  | Shadow_verify of { ok : bool }
  | Fw_cmd of string
  | Dram of { blocks : int; encrypted : bool }
  | Walk of { space : int; vfn : int }
  | Tlb_flush of { full : bool }
  | Pte_write of { vfn : int }
  | Fault of { site : string; hit : int }
  | Mark of string

type entry = {
  seq : int;
  ts : int;
  scope : string;
  event : event;
}

let default_capacity = 65536

type state = {
  mutable on : bool;
  mutable buf : entry array;
  capacity : int;
  mutable next : int;  (* slot the next entry lands in *)
  mutable total : int;  (* entries emitted since the last reset *)
  mutable clock : unit -> int;
}

let dummy = { seq = -1; ts = 0; scope = ""; event = Mark "" }

let fresh_state ?(capacity = default_capacity) () =
  { on = false;
    buf = [||];
    capacity;
    next = 0;
    total = 0;
    clock = (fun () -> 0) }

(* One recording per domain: every fleet shard (and the main domain) owns
   its own ring and clock, so concurrent shards can record without a lock
   and without perturbing each other. The default state is never enabled;
   recording happens only inside [record_into]. *)
let key = Domain.DLS.new_key (fun () -> fresh_state ())

(* The scope tag, outside any ring: [Cost.scope_enter]/[scope_exit] keep
   it at the ledger's innermost label whether or not a recording is on. *)
let scope_key = Domain.DLS.new_key (fun () -> ref "")

let st () = Domain.DLS.get key

let enabled () = (st ()).on

let set_clock f = (st ()).clock <- f

let set_scope s = Domain.DLS.get scope_key := s

let emit event =
  let st = st () in
  if st.on then begin
    if Array.length st.buf = 0 then st.buf <- Array.make st.capacity dummy;
    let scope = !(Domain.DLS.get scope_key) in
    st.buf.(st.next) <- { seq = st.total; ts = st.clock (); scope; event };
    st.next <- (st.next + 1) mod st.capacity;
    st.total <- st.total + 1
  end

(* --- reusable rings ---------------------------------------------------- *)

(* A ring is just an un-installed recording state: [record_into] swaps it
   into the domain's DLS slot for the duration of one run, so reuse means
   resetting counters — the entry array survives across runs and the
   steady-state fleet loop stops reallocating 64k-slot arrays per VM. *)
type ring = state

let ring ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.ring: capacity must be positive";
  fresh_state ~capacity ()

let ring_capacity (r : ring) = r.capacity

let ring_reset (r : ring) =
  r.on <- false;
  r.next <- 0;
  r.total <- 0;
  (* The clock is job state, not arena state: a stale neighbour's clock
     must never stamp the first events of the next job. *)
  r.clock <- (fun () -> 0)

let record_into (r : ring) ?clock f =
  ring_reset r;
  (match clock with Some c -> r.clock <- c | None -> ());
  r.on <- true;
  let saved = Domain.DLS.get key in
  Domain.DLS.set key r;
  Fun.protect
    ~finally:(fun () ->
      r.on <- false;
      Domain.DLS.set key saved)
    f

let ring_length (r : ring) = min r.total r.capacity

let ring_entries (r : ring) =
  (* Oldest entry sits at [next] once the ring has wrapped. *)
  let start = if r.total > r.capacity then r.next else 0 in
  List.init (ring_length r) (fun i -> r.buf.((start + i) mod r.capacity))

let ring_emitted (r : ring) = r.total

let ring_dropped (r : ring) = max 0 (r.total - r.capacity)

let ring_iter (r : ring) g =
  let start = if r.total > r.capacity then r.next else 0 in
  for i = 0 to ring_length r - 1 do
    g r.buf.((start + i) mod r.capacity)
  done

(* --- export ------------------------------------------------------------ *)

let event_name = function
  | Vmrun _ -> "vmrun"
  | Vmexit _ -> "vmexit"
  | Npf _ -> "npf"
  | Hypercall _ -> "hypercall"
  | Gate _ -> "gate"
  | Shadow_capture _ -> "shadow-capture"
  | Shadow_verify _ -> "shadow-verify"
  | Fw_cmd _ -> "fw-cmd"
  | Dram _ -> "dram"
  | Walk _ -> "walk"
  | Tlb_flush _ -> "tlb-flush"
  | Pte_write _ -> "pte-write"
  | Fault _ -> "fault"
  | Mark _ -> "mark"

let event_args = function
  | Vmrun { domid } -> [ ("domid", Json.Int domid) ]
  | Vmexit { domid; reason } -> [ ("domid", Json.Int domid); ("reason", Json.Str reason) ]
  | Npf { domid; gfn } -> [ ("domid", Json.Int domid); ("gfn", Json.Int gfn) ]
  | Hypercall name -> [ ("call", Json.Str name) ]
  | Gate n -> [ ("type", Json.Int n) ]
  | Shadow_capture reason -> [ ("reason", Json.Str reason) ]
  | Shadow_verify { ok } -> [ ("ok", Json.Bool ok) ]
  | Fw_cmd name -> [ ("cmd", Json.Str name) ]
  | Dram { blocks; encrypted } ->
      [ ("blocks", Json.Int blocks); ("encrypted", Json.Bool encrypted) ]
  | Walk { space; vfn } -> [ ("space", Json.Int space); ("vfn", Json.Int vfn) ]
  | Tlb_flush { full } -> [ ("full", Json.Bool full) ]
  | Pte_write { vfn } -> [ ("vfn", Json.Int vfn) ]
  | Fault { site; hit } -> [ ("site", Json.Str site); ("hit", Json.Int hit) ]
  | Mark label -> [ ("label", Json.Str label) ]

(* One ["k":v] member of an args object; keys go through the same
   escaper as values, exactly as [Json.to_buffer] writes them. *)
let key buf k =
  Json.add_str buf k;
  Buffer.add_char buf ':'

let int_arg buf k v =
  key buf k;
  Json.add_int buf v

let str_arg buf k v =
  key buf k;
  Json.add_str buf v

let bool_arg buf k v =
  key buf k;
  Buffer.add_string buf (if v then "true" else "false")

(* The members of [event_args ev], comma-separated and without braces:
   the body both exporters' ["args"] objects share. Every constructor has
   at least one member. *)
let add_args buf = function
  | Vmrun { domid } -> int_arg buf "domid" domid
  | Vmexit { domid; reason } ->
      int_arg buf "domid" domid;
      Buffer.add_char buf ',';
      str_arg buf "reason" reason
  | Npf { domid; gfn } ->
      int_arg buf "domid" domid;
      Buffer.add_char buf ',';
      int_arg buf "gfn" gfn
  | Hypercall name -> str_arg buf "call" name
  | Gate n -> int_arg buf "type" n
  | Shadow_capture reason -> str_arg buf "reason" reason
  | Shadow_verify { ok } -> bool_arg buf "ok" ok
  | Fw_cmd name -> str_arg buf "cmd" name
  | Dram { blocks; encrypted } ->
      int_arg buf "blocks" blocks;
      Buffer.add_char buf ',';
      bool_arg buf "encrypted" encrypted
  | Walk { space; vfn } ->
      int_arg buf "space" space;
      Buffer.add_char buf ',';
      int_arg buf "vfn" vfn
  | Tlb_flush { full } -> bool_arg buf "full" full
  | Pte_write { vfn } -> int_arg buf "vfn" vfn
  | Fault { site; hit } ->
      str_arg buf "site" site;
      Buffer.add_char buf ',';
      int_arg buf "hit" hit
  | Mark label -> str_arg buf "label" label

let jsonl_of entries =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf "{\"seq\":";
      Json.add_int buf e.seq;
      Buffer.add_string buf ",\"ts\":";
      Json.add_int buf e.ts;
      Buffer.add_string buf ",\"scope\":";
      Json.add_str buf e.scope;
      Buffer.add_string buf ",\"name\":";
      Json.add_str buf (event_name e.event);
      Buffer.add_string buf ",\"args\":{";
      add_args buf e.event;
      Buffer.add_string buf "}}\n")
    entries;
  Buffer.contents buf

(* The tree-building reference for [chrome_event_into]. *)
let chrome_event ?(pid = 1) ?(tid = 1) e =
  Json.Obj
    [ ("name", Json.Str (event_name e.event));
      ("cat", Json.Str (if e.scope = "" then "platform" else e.scope));
      ("ph", Json.Str "i");
      ("s", Json.Str "t");
      ("ts", Json.Int e.ts);
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj (("seq", Json.Int e.seq) :: event_args e.event)) ]

let chrome_event_into buf ?(pid = 1) ?(tid = 1) e =
  Buffer.add_string buf "{\"name\":";
  Json.add_str buf (event_name e.event);
  Buffer.add_string buf ",\"cat\":";
  Json.add_str buf (if e.scope = "" then "platform" else e.scope);
  Buffer.add_string buf ",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
  Json.add_int buf e.ts;
  Buffer.add_string buf ",\"pid\":";
  Json.add_int buf pid;
  Buffer.add_string buf ",\"tid\":";
  Json.add_int buf tid;
  Buffer.add_string buf ",\"args\":{\"seq\":";
  Json.add_int buf e.seq;
  Buffer.add_char buf ',';
  add_args buf e.event;
  Buffer.add_string buf "}}"

let chrome_of_ring ?(attribution = []) ?total_cycles (r : ring) =
  let other =
    [ ("emitted", Json.Int (ring_emitted r)); ("dropped", Json.Int (ring_dropped r)) ]
    @ (match total_cycles with Some t -> [ ("total_cycles", Json.Int t) ] | None -> [])
    @
    match attribution with
    | [] -> []
    | att -> [ ("attribution", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) att)) ]
  in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  ring_iter r (fun e ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      chrome_event_into buf e);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ns\",\"otherData\":";
  Json.to_buffer buf (Json.Obj other);
  Buffer.add_char buf '}';
  Buffer.contents buf
