(* The repository benchmark: one process runs one workload (fleet, serve
   or migrate), checks its simulated outputs against the pinned
   references, and prints every metric by name, unit and clock, with the
   result object as the last line of standard output.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --reference     print a fresh perfbench/reference.txt

   --trace 0 measures end to end with tracing off. --trace 1 is the
   separate traced run: it replays every workload's public calls with a
   span around each layer (Replay) and reports the per-layer metrics.
   Run it from the root of a source checkout; perfbench/run.sh builds it
   and does that. *)

module W = Fidelius_workloads
module Json = Fidelius_obs.Json

let workloads = [ "fleet"; "serve"; "migrate" ]

(* The traced run's pool figures use up to two worker domains, never
   more than the host has cores. The end-to-end runs use one: on a shared
   host two busy domains measure the scheduler and each other's GC
   rendezvous as much as the program, and their throughput and peak RSS
   spread several times wider between identical runs than one domain's. *)
let domains () = min 2 (Fidelius_fleet.Pool.recommended_domains ())
let end_to_end_domains = 1

(* --- scratch directory ------------------------------------------------- *)

(* Fleet writes ~2 MB of Chrome trace per VM; all of it goes to a
   directory of the benchmark's own that is removed on exit, never to
   results/. *)
let scratch_dir () =
  let root = ".perfbench_tmp" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  (* A benchmark stopped by a signal still removes its files. *)
  List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  at_exit (fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
          Sys.rmdir path
        end
        else Sys.remove path
      in
      (try rm dir with Sys_error _ -> ());
      try Sys.rmdir root with Sys_error _ -> ());
  dir

(* --- provenance -------------------------------------------------------- *)

(* A digest of the simulator's sources, so a result is tied to the code it
   measured even where the checkout carries no git metadata. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let path = Filename.concat dir f in
           if Sys.is_directory path then files path
           else if List.exists (Filename.check_suffix f) [ ".ml"; ".mli"; ".c"; "dune" ] then
             [ path ]
           else [])
  in
  files "lib"
  |> List.map (fun path -> path ^ ":" ^ Digest.to_hex (Digest.file path))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let provenance ~workload ~seed ~trace =
  let commit = Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown" in
  let seed_field =
    if workload = "serve" || trace then Json.Int seed
    else Json.Str "unused: job k is a pure function of k (SCALING.md)"
  in
  Json.Obj
    [ ("commit", Json.Str commit);
      ("source_digest", Json.Str (source_digest ()));
      ("nproc", Json.Int (Fidelius_fleet.Pool.recommended_domains ()));
      ("worker_domains", Json.Int (if trace then domains () else end_to_end_domains));
      ("aes_backend", Json.Str (Fidelius_crypto.Aes.backend ()));
      ("sha256_backend", Json.Str Fidelius_crypto.Sha256.backend);
      ( "cpu_features",
        Json.Arr (List.map (fun f -> Json.Str f) (Fidelius_crypto.Aes.cpu_features ())) );
      ("ocaml", Json.Str Sys.ocaml_version);
      ("workload", Json.Str (if trace then "all (traced replay)" else workload));
      ("seed", seed_field) ]

(* --- output ------------------------------------------------------------ *)

let number f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let print_metric (name, value, unit, clock) =
  Printf.printf "metric %-44s %16s %-8s %s\n" name (number value) unit clock

(* The result: the last stdout line is exactly this object, with these
   four keys, so a harness can read it without parsing the rest. *)
let print_result ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " fields)

let end_to_end ~workload ~seed ~seconds ~reference =
  let r =
    match workload with
    | "fleet" -> E2e.fleet ~reference ~dir:(scratch_dir ()) ~domains:end_to_end_domains ~seconds
    | "serve" -> E2e.serve ~reference ~seed:(Int64.of_int seed) ~seconds
    | _ -> E2e.migrate ~reference ~domains:end_to_end_domains ~seconds
  in
  let rss = Meter.peak_rss_mb () in
  let generic =
    [ ("norm_ops_per_s", r.E2e.norm_ops_per_s, "1/s", "host, normalised");
      ("setup_s", r.setup_s, "s", "host, normalised");
      ("peak_rss_mb", rss, "MB", "host");
      ("sim_latency_cycles", r.sim_latency_cycles, "cycles", "simulated");
      ("sim_events_per_op", r.sim_events_per_op, "count", "simulated") ]
  in
  List.iter print_metric
    (r.named
    @ [ (workload ^ ".timed_calls", float_of_int r.calls, "count", "host");
        ("raw_setup_s", r.raw_setup_s, "s", "host");
        ("probe_ms", r.probe_s *. 1e3, "ms", "host") ]);
  List.iter print_metric generic;
  print_result ~attempted:r.attempted ~failed:r.failed
    (List.map (fun (n, v, u, _) -> (n, v, u)) generic)

let traced ~seed ~seconds ~reference =
  let dir = scratch_dir () in
  let share = seconds /. 3.0 in
  let outcomes =
    [ Replay.fleet ~reference ~dir ~domains:(domains ()) ~seconds:share;
      Replay.serve ~seed:(Int64.of_int seed) ~seconds:share;
      Replay.migrate ~reference ~domains:(domains ()) ~seconds:share ]
  in
  let metrics = List.concat_map (fun o -> o.Replay.metrics) outcomes in
  List.iter
    (fun (n, v, u) ->
      print_metric (n, v, u, if List.mem n Replay.simulated then "simulated" else "host"))
    metrics;
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  print_result ~attempted:(sum (fun o -> o.Replay.attempted)) ~failed:(sum (fun o -> o.Replay.failed))
    metrics

let print_reference () =
  let dir = scratch_dir () in
  let csv = Filename.concat dir "fleet.csv" and trace = Filename.concat dir "fleet_trace.json" in
  ignore (W.Fleetbench.run_stream ~vms:Outputs.fleet_vms ~csv ~trace ());
  let values =
    Outputs.fleet_values ~csv ~trace
    @ Outputs.serve_values (W.Serve.run Outputs.serve_reference_config)
    @ Outputs.migrate_values
        (W.Migratebench.run ~vms:Outputs.migrate_vms ~budget_us:Outputs.migrate_budget_us ())
  in
  print_string
    "# Pinned simulated outputs, checked on every benchmark run. Regenerate\n\
     # with `main.exe --reference` only for a declared cost-model change.\n";
  List.iter (fun (k, v) -> Printf.printf "%s %s\n" k v) values

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let reference = ref false in
  Arg.parse
    [ ("--workload", Arg.Symbol (workloads, ( := ) workload), " workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (serve's request stream)");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end to end (0) or the traced per-layer replay (1)");
      ("--reference", Arg.Set reference, " print a fresh reference file and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload fleet|serve|migrate --seed N --seconds S --trace 0|1";
  if !reference then print_reference ()
  else begin
    if !workload = "" || (!trace <> 0 && !trace <> 1) || !seconds <= 0.0 then begin
      prerr_endline "perfbench: --workload, --trace 0|1 and a positive --seconds are required";
      exit 2
    end;
    let table = Outputs.load_reference () in
    Meter.calibrate ();
    let trace = !trace = 1 in
    Printf.printf "provenance %s\n%!"
      (Json.to_string (provenance ~workload:!workload ~seed:!seed ~trace));
    if trace then traced ~seed:!seed ~seconds:!seconds ~reference:table
    else end_to_end ~workload:!workload ~seed:!seed ~seconds:!seconds ~reference:table
  end
