(* The simulated outputs the benchmark checks, and the pinned reference
   values they are checked against (perfbench/reference.txt). Every value
   here is simulated and deterministic for fixed inputs: a change that
   only speeds up the simulator must leave all of them byte-identical.
   [main.exe --reference] prints a fresh reference file for a change that
   declares a cost-model change. *)

module W = Fidelius_workloads

let reference_path = "perfbench/reference.txt"

(* Fixed inputs of the checked runs. Fleet and migrate jobs are pure
   functions of their index, so these sizes fix their outputs; serve's
   reference run uses its library default seed. *)
let fleet_vms = 16
let migrate_vms = 16
let migrate_budget_us = 10.0

let serve_config seed =
  { W.Serve.requests = 65_536; batch = 1; net_fraction = 30; load = 0.8; seed }

let serve_reference_config = { (serve_config W.Serve.default_config.seed) with requests = 4096 }

let md5_file path = Digest.to_hex (Digest.file path)
let md5_string s = Digest.to_hex (Digest.string s)
let float_repr f = Printf.sprintf "%.17g" f

let fleet_values ~csv ~trace =
  [ ("fleet.csv_md5", md5_file csv); ("fleet.trace_md5", md5_file trace) ]

let serve_values (r : W.Serve.report) =
  [ ("serve.completed", string_of_int r.completed);
    ("serve.rps", float_repr r.rps);
    ("serve.p50_us", float_repr r.p50_us);
    ("serve.p90_us", float_repr r.p90_us);
    ("serve.p99_us", float_repr r.p99_us);
    ("serve.mean_service_cycles", float_repr r.mean_service_cycles);
    ("serve.hypercalls", string_of_int r.hypercalls);
    ("serve.blk_notifications", string_of_int r.blk_notifications);
    ("serve.net_frames", string_of_int r.net_frames) ]

let migrate_values (t : W.Migratebench.t) =
  [ ("migrate.csv_md5", md5_string (W.Migratebench.csv t));
    ("migrate.all_keys_delivered", string_of_bool (W.Migratebench.all_keys_delivered t)) ]

let load_reference () =
  let table = Hashtbl.create 16 in
  let ic = open_in reference_path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = String.trim (input_line ic) in
          if line <> "" && line.[0] <> '#' then
            match String.index_opt line ' ' with
            | Some i ->
                Hashtbl.replace table (String.sub line 0 i)
                  (String.trim (String.sub line i (String.length line - i)))
            | None -> failwith ("perfbench: malformed reference line: " ^ line)
        done
      with End_of_file -> ());
  table

(* True when every value matches its pinned reference; each mismatch is
   reported on stderr. *)
let matches table values =
  List.for_all
    (fun (key, actual) ->
      match Hashtbl.find_opt table key with
      | Some expected when expected = actual -> true
      | Some expected ->
          Printf.eprintf "perfbench: output check %s: expected %s, got %s\n%!" key expected actual;
          false
      | None ->
          Printf.eprintf "perfbench: output check %s: no reference value\n%!" key;
          false)
    values
