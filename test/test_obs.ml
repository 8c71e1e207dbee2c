(* Tests for the observability subsystem: the Cost scope-attribution
   invariant, the trace ring buffer, and both exporters. The golden JSONL
   trace pins the determinism contract — ledger-clock timestamps mean the
   same seed yields a byte-identical trace. *)

module Hw = Fidelius_hw
module Xen = Fidelius_xen
module Sev = Fidelius_sev
module Core = Fidelius_core
module Rng = Fidelius_crypto.Rng
module Cost = Hw.Cost
module Obs = Fidelius_obs
module Trace = Obs.Trace
module Json = Obs.Json

(* --- Cost scope attribution -------------------------------------------- *)

(* A scope's row in the attribution listing; 0 when it is not listed. *)
let scope_cycles l name = Option.value ~default:0 (List.assoc_opt name (Cost.scopes l))

let test_scope_basics () =
  let l = Cost.ledger () in
  Cost.charge_id l (Cost.intern "a") 10;
  Cost.scope_enter l (Cost.intern "dom1");
  Cost.charge_id l (Cost.intern "a") 5;
  Cost.scope_exit l;
  Alcotest.(check int) "total" 15 (Cost.total l);
  Alcotest.(check int) "dom1" 5 (scope_cycles l "dom1");
  Alcotest.(check int) "root remainder" 10 (scope_cycles l Cost.root_scope);
  Alcotest.(check (list (pair string int))) "scopes listing"
    [ ("(root)", 10); ("dom1", 5) ]
    (Cost.scopes l)

let test_scope_innermost_only () =
  let l = Cost.ledger () in
  Cost.scope_enter l (Cost.intern "outer");
  Cost.charge_id l (Cost.intern "a") 1;
  Cost.scope_enter l (Cost.intern "inner");
  Cost.charge_id l (Cost.intern "a") 2;
  Cost.scope_exit l;
  Cost.charge_id l (Cost.intern "a") 4;
  Cost.scope_exit l;
  Alcotest.(check int) "outer books its own charges only" 5 (scope_cycles l "outer");
  Alcotest.(check int) "inner" 2 (scope_cycles l "inner");
  Alcotest.(check int) "no root residue" 0 (scope_cycles l Cost.root_scope)

(* Every test records into its own ring and inspects it once [f] has
   run; nothing is left installed on the domain afterwards. *)
let with_trace ?capacity ?clock f =
  let r = Trace.ring ?capacity () in
  Trace.record_into r ?clock f;
  r

let scope_tags r = List.map (fun e -> e.Trace.scope) (Trace.ring_entries r)

(* [Hypervisor.in_guest] is the one production path that can raise inside
   a scope: the scope (and the trace's scope tag) must be left on the way
   out, and the charges made before the raise stay booked to it. *)
let test_scope_exception_safety () =
  let machine = Hw.Machine.create ~seed:1L () in
  let l = machine.Hw.Machine.ledger in
  let hv = Xen.Hypervisor.boot machine in
  let dom = Xen.Hypervisor.create_domain hv ~name:"doomed" ~memory_pages:4 in
  let label = Cost.id_label dom.Xen.Domain.scope in
  let dom_before = scope_cycles l label and root_before = scope_cycles l Cost.root_scope in
  let r =
    with_trace (fun () ->
        (try
           Xen.Hypervisor.in_guest hv dom (fun () ->
               Cost.charge_id l (Cost.intern "a") 3;
               Trace.emit (Trace.Mark "inside");
               failwith "boom")
         with Failure _ -> ());
        Cost.charge_id l (Cost.intern "a") 7;
        Trace.emit (Trace.Mark "after"))
  in
  Alcotest.(check int) "scope popped on raise" 7 (scope_cycles l Cost.root_scope - root_before);
  Alcotest.(check int) "charges inside kept" 3 (scope_cycles l label - dom_before);
  Alcotest.(check (list string)) "trace tag left with the scope" [ label; "" ] (scope_tags r)

let test_negative_charge_rejected () =
  let l = Cost.ledger () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Cost.charge_id: negative charge -4 to \"dram\"") (fun () ->
      Cost.charge_id l (Cost.intern "dram") (-4));
  Alcotest.(check int) "nothing booked" 0 (Cost.total l)

let test_root_scope_reserved () =
  let l = Cost.ledger () in
  Alcotest.(check bool) "scope_enter rejects (root)" true
    (try
       Cost.scope_enter l (Cost.intern Cost.root_scope);
       false
     with Invalid_argument _ -> true);
  Cost.charge_id l (Cost.intern "a") 1;
  Alcotest.(check (list (pair string int))) "nothing entered" [ ("(root)", 1) ] (Cost.scopes l)

let test_categories_tie_break () =
  let l = Cost.ledger () in
  List.iter (fun c -> Cost.charge_id l (Cost.intern c) 5) [ "zeta"; "alpha"; "mid" ];
  Cost.charge_id l (Cost.intern "big") 9;
  Alcotest.(check (list (pair string int))) "desc count, asc name on ties"
    [ ("big", 9); ("alpha", 5); ("mid", 5); ("zeta", 5) ]
    (Cost.categories l)

(* Property: under arbitrary nesting and charging, per-scope attribution
   sums exactly to the global total, and every traced event carries the
   innermost scope's label ("" outside any scope). *)
type op = Charge of int | Scoped of int * op list

let op_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then map (fun c -> Charge c) (int_bound 1000)
          else
            frequency
              [ (2, map (fun c -> Charge c) (int_bound 1000));
                ( 1,
                  map2
                    (fun s ops -> Scoped (s, ops))
                    (int_bound 4)
                    (list_size (int_bound 4) (self (n / 2))) ) ])
        n)

let rec op_print = function
  | Charge c -> Printf.sprintf "Charge %d" c
  | Scoped (s, ops) ->
      Printf.sprintf "Scoped (%d, [%s])" s (String.concat "; " (List.map op_print ops))

let arbitrary_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_bound 8) op_gen)

let scope_name i = Printf.sprintf "scope%d" i

(* Each [Charge] also emits a [Mark] naming the scope it expects the
   trace to tag it with. *)
let rec interpret l innermost = function
  | Charge c ->
      Cost.charge_id l (Cost.intern "work") c;
      Trace.emit (Trace.Mark innermost)
  | Scoped (s, ops) ->
      Cost.scope_enter l (Cost.intern (scope_name s));
      List.iter (interpret l (scope_name s)) ops;
      Cost.scope_exit l

let prop_scope_sums_to_total =
  let r = Trace.ring () in
  QCheck.Test.make ~count:300 ~name:"sum(scopes) = total under nesting"
    arbitrary_ops (fun ops ->
      let l = Cost.ledger () in
      Trace.record_into r (fun () -> List.iter (interpret l "") ops);
      let scope_sum = List.fold_left (fun a (_, v) -> a + v) 0 (Cost.scopes l) in
      let tags_ok = ref true in
      Trace.ring_iter r (fun e ->
          match e.Trace.event with
          | Trace.Mark expected -> if e.Trace.scope <> expected then tags_ok := false
          | _ -> tags_ok := false);
      scope_sum = Cost.total l && !tags_ok)

(* --- trace ring buffer -------------------------------------------------- *)

let test_ring_wrap () =
  let r =
    with_trace ~capacity:4 (fun () ->
        for i = 0 to 9 do
          Trace.emit (Trace.Gate (1 + (i mod 3)))
        done)
  in
  Alcotest.(check int) "emitted" 10 (Trace.ring_emitted r);
  Alcotest.(check int) "dropped" 6 (Trace.ring_dropped r);
  let es = Trace.ring_entries r in
  Alcotest.(check int) "retained" 4 (List.length es);
  Alcotest.(check (list int)) "oldest-first, newest retained" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Trace.seq) es)

let test_disabled_emits_nothing () =
  Alcotest.(check bool) "off outside a recording" false (Trace.enabled ());
  let r = with_trace (fun () -> Trace.emit (Trace.Mark "kept")) in
  Alcotest.(check bool) "off again once the recording ends" false (Trace.enabled ());
  Trace.emit (Trace.Mark "ignored");
  Alcotest.(check int) "no entry after the recording" 1 (Trace.ring_emitted r)

let test_clock_and_scope_tagging () =
  let l = Cost.ledger () in
  let r =
    with_trace ~clock:(fun () -> Cost.total l) (fun () ->
        Cost.charge_id l (Cost.intern "setup") 100;
        Trace.emit (Trace.Mark "before");
        Cost.scope_enter l (Cost.intern "dom7");
        Cost.charge_id l (Cost.intern "work") 23;
        Trace.emit (Trace.Mark "inside");
        Cost.scope_exit l)
  in
  match Trace.ring_entries r with
  | [ a; b ] ->
      Alcotest.(check int) "ledger timestamp" 100 a.Trace.ts;
      Alcotest.(check string) "unscoped" "" a.Trace.scope;
      Alcotest.(check int) "later timestamp" 123 b.Trace.ts;
      Alcotest.(check string) "scope read from the ledger" "dom7" b.Trace.scope
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es)

(* The trace tag follows the ledger's stack, not a copy of it: a recording
   started inside a scope tags its first events with that scope, and an
   exit on a second ledger that is at depth 0 changes nothing. *)
let test_scope_tags_follow_ledger () =
  let l = Cost.ledger () and idle = Cost.ledger () in
  let mark label = Trace.emit (Trace.Mark label) in
  Cost.scope_enter l (Cost.intern "outer");
  let nested =
    with_trace (fun () ->
        mark "before";
        Cost.scope_enter l (Cost.intern "inner");
        mark "inside";
        Cost.scope_exit l;
        mark "after")
  in
  Cost.scope_exit l;
  let stray =
    with_trace (fun () ->
        Cost.scope_enter l (Cost.intern "A");
        Cost.scope_exit idle;
        mark "after stray exit";
        Cost.scope_exit l)
  in
  Alcotest.(check (list string)) "recording started mid-scope"
    [ "outer"; "inner"; "outer" ] (scope_tags nested);
  Alcotest.(check (list string)) "exit on an idle ledger" [ "A" ] (scope_tags stray)

(* --- golden JSONL trace -------------------------------------------------- *)

(* The demo scenario distilled to its post-boot core: a protected guest
   writes a secret, the hypervisor round-trips a hypercall. Boot noise is
   excluded (tracing starts after install) to keep the golden file small;
   the full demo trace is exercised end-to-end by the trace-smoke alias. *)
let demo_slice () =
  let machine = Hw.Machine.create ~seed:2026L () in
  let ledger = machine.Hw.Machine.ledger in
  let hv = Xen.Hypervisor.boot machine in
  let fid = Core.Fidelius.install hv in
  let rng = Rng.create 77L in
  let prepared =
    Sev.Transport.Owner.prepare ~rng
      ~platform_public:(Core.Fidelius.platform_key fid)
      ~policy:Sev.Firmware.policy_nodbg
      ~kernel_pages:[ Bytes.make Hw.Addr.page_size '\000' ]
  in
  let dom =
    match
      Core.Fidelius.boot_protected_vm fid ~name:"golden" ~memory_pages:8 ~prepared
    with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let ring =
    with_trace ~clock:(fun () -> Cost.total ledger) (fun () ->
        Trace.emit (Trace.Mark "slice-start");
        Xen.Hypervisor.in_guest hv dom (fun () ->
            Xen.Domain.write machine dom ~addr:0x3000 (Bytes.of_string "golden secret"));
        ignore (Xen.Hypervisor.hypercall hv dom (Xen.Hypercall.Console_write "hi"));
        Trace.emit (Trace.Mark "slice-end"))
  in
  (ledger, ring)

(* cwd is test/ under `dune runtest`, the workspace root under `dune exec`. *)
let read_golden name =
  let candidates =
    [ Filename.concat "golden" name; Filename.concat (Filename.concat "test" "golden") name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> In_channel.with_open_bin path In_channel.input_all
  | None -> Alcotest.failf "golden file %s not found" name

let test_golden_jsonl () =
  let _ledger, ring = demo_slice () in
  let actual = Trace.jsonl_of (Trace.ring_entries ring) in
  let golden = read_golden "trace_demo.jsonl" in
  if golden <> actual then begin
    (* Dump next to the runner so a deliberate regeneration is one copy. *)
    Out_channel.with_open_bin "trace_demo.actual.jsonl" (fun oc ->
        output_string oc actual);
    Alcotest.failf
      "golden trace mismatch (%d vs %d bytes); actual dumped to %s"
      (String.length golden) (String.length actual)
      (Filename.concat (Sys.getcwd ()) "trace_demo.actual.jsonl")
  end

let test_jsonl_well_formed () =
  let ledger, ring = demo_slice () in
  let jsonl = Trace.jsonl_of (Trace.ring_entries ring) in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl) in
  Alcotest.(check bool) "non-empty" true (lines <> []);
  let last_seq = ref (-1) and last_ts = ref (-1) in
  List.iter
    (fun line ->
      let j = Json.parse line in
      let geti k =
        match Json.member k j with
        | Some (Json.Int n) -> n
        | _ -> Alcotest.failf "missing int %S in %s" k line
      in
      let seq = geti "seq" and ts = geti "ts" in
      Alcotest.(check bool) "seq strictly increasing" true (seq > !last_seq);
      Alcotest.(check bool) "ts non-decreasing" true (ts >= !last_ts);
      Alcotest.(check bool) "ts within ledger" true (ts <= Cost.total ledger);
      last_seq := seq;
      last_ts := ts)
    lines

(* --- Chrome exporter round-trip ----------------------------------------- *)

let test_chrome_roundtrip () =
  let ledger, ring = demo_slice () in
  let attribution = Cost.scopes ledger in
  let total = Cost.total ledger in
  let events = Trace.ring_length ring in
  let reparsed = Json.parse (Trace.chrome_of_ring ~attribution ~total_cycles:total ring) in
  (match Json.member "traceEvents" reparsed with
  | Some (Json.Arr evs) ->
      Alcotest.(check int) "all events exported" events (List.length evs);
      Alcotest.(check bool) "every event parses to its reference tree" true
        (evs = List.map (fun e -> Trace.chrome_event e) (Trace.ring_entries ring))
  | _ -> Alcotest.fail "traceEvents missing");
  match Option.bind (Json.member "otherData" reparsed) (Json.member "attribution") with
  | Some (Json.Obj fields) ->
      let s =
        List.fold_left
          (fun a (_, v) -> match v with Json.Int n -> a + n | _ -> a)
          0 fields
      in
      Alcotest.(check int) "attribution sums to ledger total" total s
  | _ -> Alcotest.fail "otherData.attribution missing"

(* The bytes of `fidelius_sim trace demo --format chrome`, which the test
   rule in test/dune writes next to this runner. The digest was taken
   from the tree-building exporter the direct writer replaced. *)
let test_demo_chrome_digest () =
  let name = "trace_demo.chrome.json" in
  let candidates = [ name; Filename.concat (Filename.concat "_build" "default") ("test/" ^ name) ] in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.failf "%s not found (built by the runtest rule in test/dune)" name
  | Some path ->
      Alcotest.(check string) "md5 of trace demo --format chrome"
        "e6c73e675fa84c008c8adfa2a235d72b"
        (Digest.to_hex (Digest.file path))

(* --- direct writers = tree reference ------------------------------------ *)

(* Strings a JSON escaper can get wrong: quotes, backslashes, every kind
   of control byte, DEL, multi-byte UTF-8 and text that looks escaped. *)
let adversarial_string =
  let open QCheck.Gen in
  let piece =
    oneof
      [ oneofl
          [ "\""; "\\"; "\n"; "\r"; "\t"; "\x00"; "\x01"; "\x08"; "\x0c"; "\x1f"; "\x7f";
            "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "\\u0041"; "plain" ];
        string_size ~gen:char (int_bound 3) ]
  in
  list_size (int_bound 5) piece >|= String.concat ""

let adversarial_int =
  QCheck.Gen.(oneof [ oneofl [ min_int; max_int; 0; -1; min_int + 1 ]; int; small_signed_int ])

type case = {
  strs : string array;  (* scope, reason, call, cmd, site, label *)
  ints : int array;  (* seq, ts, domid, gfn, gate, blocks, space, vfn, hit *)
  bools : bool array;  (* ok, encrypted, full *)
  pid : int option;
  tid : int option;
}

let case_gen =
  let open QCheck.Gen in
  let* strs = array_repeat 6 adversarial_string in
  let* ints = array_repeat 9 adversarial_int in
  let* bools = array_repeat 3 bool in
  let* pid = opt adversarial_int in
  let+ tid = opt adversarial_int in
  { strs; ints; bools; pid; tid }

let print_case c =
  Printf.sprintf "strs=[%s] ints=[%s] bools=[%s] pid=%s tid=%s"
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%S") c.strs)))
    (String.concat "; " (Array.to_list (Array.map string_of_int c.ints)))
    (String.concat "; " (Array.to_list (Array.map string_of_bool c.bools)))
    (Option.fold ~none:"default" ~some:string_of_int c.pid)
    (Option.fold ~none:"default" ~some:string_of_int c.tid)

(* One entry per [Trace.event] constructor, all 14, filled from [c]. *)
let entries_of c =
  let s = c.strs and i = c.ints and b = c.bools in
  List.map
    (fun event -> { Trace.seq = i.(0); ts = i.(1); scope = s.(0); event })
    Trace.
      [ Vmrun { domid = i.(2) };
        Vmexit { domid = i.(2); reason = s.(1) };
        Npf { domid = i.(2); gfn = i.(3) };
        Hypercall s.(2);
        Gate i.(4);
        Shadow_capture s.(1);
        Shadow_verify { ok = b.(0) };
        Fw_cmd s.(3);
        Dram { blocks = i.(5); encrypted = b.(1) };
        Walk { space = i.(6); vfn = i.(7) };
        Tlb_flush { full = b.(2) };
        Pte_write { vfn = i.(7) };
        Fault { site = s.(4); hit = i.(8) };
        Mark s.(5) ]

(* The JSONL object as a tree: the reference [Trace.jsonl_of] is checked
   against. *)
let jsonl_reference (e : Trace.entry) =
  Json.Obj
    [ ("seq", Json.Int e.seq);
      ("ts", Json.Int e.ts);
      ("scope", Json.Str e.scope);
      ("name", Json.Str (Trace.event_name e.event));
      ("args", Json.Obj (Trace.event_args e.event)) ]

let prop_direct_writers_match_tree =
  QCheck.Test.make ~count:300 ~name:"direct writers = tree reference"
    (QCheck.make ~print:print_case case_gen)
    (fun c ->
      List.for_all
        (fun e ->
          (* Appends after what the buffer already holds. *)
          let direct = Buffer.create 16 and tree = Buffer.create 16 in
          Buffer.add_string direct "prefix,";
          Buffer.add_string tree "prefix,";
          Trace.chrome_event_into direct ?pid:c.pid ?tid:c.tid e;
          Json.to_buffer tree (Trace.chrome_event ?pid:c.pid ?tid:c.tid e);
          Buffer.contents direct = Buffer.contents tree
          && Trace.jsonl_of [ e ] = Json.to_string (jsonl_reference e) ^ "\n")
        (entries_of c))

let test_json_writers () =
  List.iter
    (fun i ->
      let buf = Buffer.create 8 in
      Json.add_int buf i;
      Alcotest.(check string) (string_of_int i) (string_of_int i) (Buffer.contents buf))
    [ min_int; min_int + 1; -10; -9; -1; 0; 9; 10; 4096; max_int ];
  let buf = Buffer.create 8 in
  Json.add_str buf "a\"b\\c\n\x01\x1f\x7f\xc3\xa9";
  Alcotest.(check string) "escaped string" "\"a\\\"b\\\\c\\n\\u0001\\u001f\x7f\xc3\xa9\""
    (Buffer.contents buf);
  (* Every byte, alone: the output parses back to it and carries no raw
     control byte. *)
  for code = 0 to 255 do
    let s = String.make 1 (Char.chr code) in
    let buf = Buffer.create 8 in
    Json.add_str buf s;
    let out = Buffer.contents buf in
    if String.exists (fun c -> Char.code c < 0x20) out then
      Alcotest.failf "byte 0x%02x left unescaped: %S" code out;
    if Json.parse out <> Json.Str s then
      Alcotest.failf "byte 0x%02x does not round-trip: %S" code out
  done

(* --- Json parser --------------------------------------------------------- *)

let test_json_escapes () =
  let j = Json.Obj [ ("k\"\\\n", Json.Str "v\t\x01") ] in
  Alcotest.(check bool) "escape round-trip" true (Json.parse (Json.to_string j) = j)

let test_json_values () =
  List.iter
    (fun (s, v) -> Alcotest.(check bool) s true (Json.parse s = v))
    [ ("null", Json.Null);
      ("true", Json.Bool true);
      ("-42", Json.Int (-42));
      ("2.5", Json.Float 2.5);
      ("[1,[2],{}]", Json.Arr [ Json.Int 1; Json.Arr [ Json.Int 2 ]; Json.Obj [] ]);
      ("  {\"a\" : 1}  ", Json.Obj [ ("a", Json.Int 1) ]);
      ("\"\\u0041\\u001f\"", Json.Str "A\x1f");
      ("\"\\u00e9\\u20AC\"", Json.Str "\xc3\xa9\xe2\x82\xac");
      ("\"\\ud83d\\ude00\"", Json.Str "\xf0\x9f\x98\x80");
      ("1e308", Json.Float 1e308) ]

let test_json_rejects () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true
        (try
           ignore (Json.parse s);
           false
         with Json.Parse_error _ -> true))
    [ "{"; "[1,]"; "nul"; "\"unterminated"; "1 2"; ""; "\"\\uZZZZ\""; "\"\\u12\"";
      "\"\\u1_23\""; "\"\\ud800\""; "\"\\ud800\\u0041\""; "\"\\udc00\""; "1e999";
      "-1e999" ];
  List.iter
    (fun f ->
      Alcotest.(check bool) (Printf.sprintf "%h not printed" f) true
        (try
           ignore (Json.to_string (Json.Float f));
           false
         with Invalid_argument _ -> true))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let () =
  Alcotest.run "obs"
    [ ( "cost-scopes",
        [ Alcotest.test_case "basics" `Quick test_scope_basics;
          Alcotest.test_case "innermost-only booking" `Quick test_scope_innermost_only;
          Alcotest.test_case "exception safety" `Quick test_scope_exception_safety;
          Alcotest.test_case "negative charge" `Quick test_negative_charge_rejected;
          Alcotest.test_case "root reserved" `Quick test_root_scope_reserved;
          Alcotest.test_case "tie-break" `Quick test_categories_tie_break;
          QCheck_alcotest.to_alcotest prop_scope_sums_to_total ] );
      ( "ring",
        [ Alcotest.test_case "wrap" `Quick test_ring_wrap;
          Alcotest.test_case "disabled" `Quick test_disabled_emits_nothing;
          Alcotest.test_case "clock and scope" `Quick test_clock_and_scope_tagging;
          Alcotest.test_case "scope tags follow the ledger" `Quick
            test_scope_tags_follow_ledger ] );
      ( "export",
        [ Alcotest.test_case "golden jsonl" `Slow test_golden_jsonl;
          Alcotest.test_case "jsonl well-formed" `Quick test_jsonl_well_formed;
          Alcotest.test_case "chrome round-trip" `Quick test_chrome_roundtrip;
          Alcotest.test_case "demo chrome digest" `Quick test_demo_chrome_digest;
          QCheck_alcotest.to_alcotest prop_direct_writers_match_tree ] );
      ( "json",
        [ Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "values" `Quick test_json_values;
          Alcotest.test_case "rejects" `Quick test_json_rejects;
          Alcotest.test_case "writers" `Quick test_json_writers ] ) ]
