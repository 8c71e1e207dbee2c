(* Host-speed probe: a fixed piece of work owned by the benchmark, timed
   between the workload's calls, so a run can tell how fast the host was
   while it ran.

   On a shared host the same call's time drifts between fast and slow
   stretches that last seconds to minutes (measured on a 2-vCPU Xeon VM:
   one fleet call took 0.55 s in one minute and 1.0 s a few minutes
   later, with CPU time tracking wall time, so the process was not
   descheduled; the host ran it slower). A run that lands in a slow
   stretch reports a lower rate although the program did not change. The
   probe is timed in the same stretches as the calls, and the normalised
   rate (E2e) scales the raw rate by the probe's mean time over
   [reference_s]: the rate the program would show on a host on which the
   probe takes [reference_s].

   The probe exercises what the workloads spend their time on: integer
   work over a cache-resident buffer, MD5 (C code), streaming writes,
   minor-heap allocation, freshly mapped memory (every fleet and migrate
   job boots machines on new guest memory) and random reads over a
   buffer larger than the per-core caches. It calls nothing in the
   simulator, so no change to the simulator can change it. *)

let reference_s = 0.040

let sink = ref 0
let small = Bytes.make (256 * 1024) 'a'
let big = Bytes.make (8 * 1024 * 1024) 'b'

let mix () =
  let h = ref 0x12345 and n = Bytes.length small / 8 in
  for _ = 1 to 24 do
    for i = 0 to n - 1 do
      h := (!h lxor Int64.to_int (Bytes.get_int64_le small (i * 8))) * 0x100000001b3 land max_int;
      Bytes.set_int64_le small ((!h lsr 7) mod n * 8) (Int64.of_int (!h lxor i))
    done
  done;
  sink := !sink + !h

let md5 () = sink := !sink + Char.code (Digest.subbytes big 0 (4 * 1024 * 1024)).[0]

let stream () =
  for k = 0 to 7 do
    Bytes.fill big 0 (Bytes.length big) (Char.chr (48 + k))
  done;
  sink := !sink + Char.code (Bytes.get big 12345)

let alloc () =
  for i = 1 to 500 do
    sink := !sink + List.fold_left (fun a (x, y) -> a + x + y) 0 (List.init 1000 (fun j -> (i, j)))
  done

let random () =
  let n = Bytes.length big / 8 and h = ref 7 in
  for _ = 1 to 100_000 do
    h := ((!h * 0x5DEECE66D) + 11) land 0xFFFFFFFFFFFF;
    h := !h lxor Int64.to_int (Bytes.get_int64_le big ((!h lsr 5) mod n * 8))
  done;
  sink := !sink + !h

(* The buffer is unreachable when [fresh] returns; the caller's full
   collection frees it, so the next probe maps new memory again. *)
let fresh () =
  let b = Bytes.create (8 * 1024 * 1024) in
  Bytes.fill b 0 (Bytes.length b) 'f';
  sink := !sink + Char.code (Bytes.get b 4097)

(* [run ()] is the probe's host seconds. *)
let run () =
  snd
    (Meter.timed (fun () ->
         mix ();
         md5 ();
         stream ();
         alloc ();
         random ();
         fresh ()))
