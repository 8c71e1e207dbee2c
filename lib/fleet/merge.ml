module Json = Fidelius_obs.Json

let process_meta ~pid label =
  Json.Obj
    [ ("name", Json.Str "process_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int 1);
      ("args", Json.Obj [ ("name", Json.Str label) ]) ]

let chrome_other_data shards =
  Json.Obj
    [ ("shards", Json.Int (List.length shards));
      ("events_per_shard", Json.Obj (List.map (fun (label, n) -> (label, Json.Int n)) shards)) ]

let chrome_header = "{\"traceEvents\":["

let chrome_footer ~shards =
  "],\"displayTimeUnit\":\"ns\",\"otherData\":" ^ Json.to_string (chrome_other_data shards) ^ "}"

(* --- spill files: streaming shard output -------------------------------- *)

let concat_spills ~out ?(header = "") ?(footer = "") paths =
  let oc = open_out_bin out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc header;
      let buf = Bytes.create 65536 in
      List.iter
        (fun path ->
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () ->
              let rec pump () =
                let n = input ic buf 0 (Bytes.length buf) in
                if n > 0 then begin
                  output oc buf 0 n;
                  pump ()
                end
              in
              pump ()))
        paths;
      output_string oc footer)

let csv ~header rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (List.iter (fun row ->
         Buffer.add_string buf row;
         Buffer.add_char buf '\n'))
    rows;
  Buffer.contents buf
