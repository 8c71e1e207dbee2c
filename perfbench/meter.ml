(* Host-time measurement: a monotonic nanosecond clock, span accumulators
   that also record the minor-heap words a call allocated, and the order
   statistics the benchmark reports. Everything here measures the
   simulator's own cost on the host, never simulated time. *)

let now_ns () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

(* [timed f] is [f ()] with its host seconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_between t0 (now_ns ()))

(* --- span accumulators ------------------------------------------------ *)

type acc = {
  mutable n : int;
  mutable ns : float;  (** summed duration *)
  mutable words : float;  (** summed minor words *)
  mutable samples : float array;  (** per-call durations in ns, first [n] valid *)
}

let acc () = { n = 0; ns = 0.0; words = 0.0; samples = Array.make 64 0.0 }

(* Cost of an empty span, measured once at start-up and subtracted from
   every recorded span so the per-call figures are the calls' own. *)
let overhead_ns = ref 0.0
let overhead_words = ref 0.0

let record a ~ns ~words =
  let ns = ns -. !overhead_ns and words = words -. !overhead_words in
  if a.n = Array.length a.samples then begin
    let s = Array.make (2 * a.n) 0.0 in
    Array.blit a.samples 0 s 0 a.n;
    a.samples <- s
  end;
  a.samples.(a.n) <- ns;
  a.n <- a.n + 1;
  a.ns <- a.ns +. ns;
  a.words <- a.words +. words

(* [measure f] is [f ()] with the nanoseconds and minor words it took,
   uncorrected; [span a f] records them in [a]. *)
let measure f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  (r, Int64.to_float (Int64.sub t1 t0), w1 -. w0)

let span a f =
  let r, ns, words = measure f in
  record a ~ns ~words;
  r

let calibrate () =
  let probe = acc () in
  overhead_ns := 0.0;
  overhead_words := 0.0;
  for _ = 1 to 20_000 do
    span probe ignore
  done;
  overhead_ns := probe.ns /. float_of_int probe.n;
  overhead_words := probe.words /. float_of_int probe.n

let mean_ns a = if a.n = 0 then 0.0 else a.ns /. float_of_int a.n
let mean_ms a = mean_ns a /. 1e6
let mean_us a = mean_ns a /. 1e3
let mean_words a = if a.n = 0 then 0.0 else a.words /. float_of_int a.n

(* --- order statistics ------------------------------------------------- *)

let sorted_of xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array, the rule [Serve] uses. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let median xs =
  let a = sorted_of xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest of the standard percentiles that still has at least ten
   samples beyond it, with its value; [None] below 11 samples. *)
let tail sorted =
  let n = Array.length sorted in
  List.find_map
    (fun p ->
      let beyond = n - 1 - int_of_float (p *. float_of_int n) in
      if beyond >= 10 then Some (p, percentile sorted p) else None)
    [ 0.9999; 0.999; 0.99; 0.9; 0.5 ]

let samples_us a =
  let s = Array.sub a.samples 0 a.n in
  Array.sort compare s;
  Array.map (fun ns -> ns /. 1e3) s

(* --- process memory --------------------------------------------------- *)

(* Peak resident set in MB (VmHWM); falls back to the OCaml heap's
   high-water mark where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.0)
          | _ -> scan ()
        in
        scan ())
  in
  try from_proc ()
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ | Failure _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
