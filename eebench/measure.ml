(* Clocks, per-layer spans and counters, GC deltas and the result line.

   Layers are measured from outside: a workload wraps each call into a
   library's public function in [span], so no library code is touched.
   Spans and counters record only while [tracing] is set; with tracing off
   a wrapped call costs one branch. *)

let now = Unix.gettimeofday

let tracing = ref false

let spans : (string, float) Hashtbl.t = Hashtbl.create 32

let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let bump tbl name v =
  Hashtbl.replace tbl name (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name))

(* Seconds spent inside [f], summed per name across every traced call. *)
let span name f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    Fun.protect ~finally:(fun () -> bump spans name (now () -. t0)) f
  end

let count name v = if !tracing then bump counters name v

let span_s name = Option.value ~default:0. (Hashtbl.find_opt spans name)

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

(* GC activity of the traced passes: minor words allocated and major
   collections, summed over passes, from [Gc.quick_stat] deltas. *)
let gc_minor_words = ref 0.

let gc_major_collections = ref 0

let with_gc f =
  if not !tracing then f ()
  else begin
    let before = Gc.quick_stat () in
    let r = f () in
    let after = Gc.quick_stat () in
    gc_minor_words := !gc_minor_words +. (after.Gc.minor_words -. before.Gc.minor_words);
    gc_major_collections :=
      !gc_major_collections + (after.Gc.major_collections - before.Gc.major_collections);
    r
  end

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU seconds this process has run, user and system ([getrusage]).  The
   kernel leaves out the time its vCPU was stolen by the hypervisor, so on
   a shared host this moves far less than the wall clock. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_time f =
  let t0 = cpu_now () in
  let r = f () in
  (r, cpu_now () -. t0)

let median l = Ee_util.Stats.percentile (Array.of_list l) 50.

let pct l p = Ee_util.Stats.percentile (Array.of_list l) p

let mean l = Ee_util.Stats.mean (Array.of_list l)

let geomean l = Ee_util.Stats.geomean (Array.of_list l)

(* -- host speed ------------------------------------------------------------ *)

(* The host's cores switch between a fast and a slow state (another tenant
   busy on the same physical core), each lasting from seconds to minutes.
   The slow state stretches the workloads' times by 1.2-1.7x: one [table3]
   pass takes 0.27 s in the one and 0.40 s in the other, and a 25 s run
   often sits in one state from start to end.  So every time the benchmark
   reports is scaled by a probe, a fixed piece of work timed right beside
   the measured code: a time [t] measured beside a probe that took [p] is
   reported as [t *. probe_ref_s /. p], in seconds of a host on which the
   probe takes [probe_ref_s] (the fast state of the 2-core Xeon VM the
   benchmark was written on).  The probe is this file's own code and
   allocates nothing, so a change to the libraries, or to the heap they
   leave behind, moves the measured times and not the probe. *)

(* Sorting pairs with the polymorphic [compare], as symbolic OCaml code
   does: branchy, pointer-chasing work that the slow state stretches by
   about as much as it stretches the workloads. *)
let probe_pairs = Array.init 2000 (fun i -> ((i * 7919) land 1023, i))

let probe_work = Array.copy probe_pairs

let probe_ref_s = 0.0009

(* CPU seconds of one probe. *)
let probe () =
  let t0 = cpu_now () in
  Array.blit probe_pairs 0 probe_work 0 (Array.length probe_pairs);
  Array.sort compare probe_work;
  ignore (Sys.opaque_identity probe_work);
  cpu_now () -. t0

(* [f]'s CPU time, scaled by the mean of a probe just before and one just
   after it. *)
let scaled f =
  let p0 = probe () in
  let r, dt = cpu_time f in
  let p1 = probe () in
  (r, dt *. probe_ref_s *. 2. /. (p0 +. p1))

(* [f]'s wall time, scaled, and the scale for times taken inside [f]: from
   the median of three probes before and three after.  For work waited
   for, such as the daemon's. *)
let scaled_wall f =
  let probes () = List.init 3 (fun _ -> probe ()) in
  let before = probes () in
  let r, dt = time f in
  let scale = probe_ref_s /. median (before @ probes ()) in
  (r, dt *. scale, scale)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> failwith "VmHWM missing from /proc status"
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> loop ()
      in
      loop ())

(* Checks: every failed comparison is one failed operation, and the first
   few are echoed on stderr so a failing run says why. *)
let attempted = ref 0

let failed = ref 0

let attempt ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if !failed <= 20 then prerr_endline ("eebench: check failed: " ^ what)
  end

(* The result line: the last line of standard output. *)
let emit ~correct metrics =
  let metric (name, value, unit) =
    if not (Float.is_finite value) then
      failwith (Printf.sprintf "metric %s is not finite" name);
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed
    (String.concat ", " (List.map metric metrics))
