(* The benchmark program.  Run through eebench/run.py, which builds it:

     eebench.exe --workload table3 --seed 7 --seconds 25 --trace 0

   sets the workload up five times (reporting the median as [setup_s]),
   checks its input fingerprint, then runs passes over its inputs for
   [--seconds], checking every output.  The last line of standard output
   is the result: end-to-end metrics with [--trace 0], per-layer metrics
   with [--trace 1].  [--record FILE] writes the references the checks
   compare against.  See eebench/README.md. *)

let workloads = [ "table3"; "import_select"; "fault_campaign"; "serve_mixed" ]

let setup_reps = 5

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  reference : string;
  daemon : string;
}

let prepare args ~reference ~seed =
  match args.workload with
  | "table3" -> Table3.prepare ~reference ~seed
  | "import_select" -> Import_select.prepare ~seed
  | "fault_campaign" -> Fault_campaign.prepare ~reference ~seed
  | "serve_mixed" -> Serve_mixed.prepare ~daemon:args.daemon ~seed
  | w -> invalid_arg ("unknown workload " ^ w)

(* Passes whose items are pooled are taken in groups of at least this many
   items, so that a group's p99 has ten items above it. *)
let pooled_items = 1000

(* The run's figures from its untraced passes, each time already scaled
   to the reference host (see [Measure.scaled]).  Where every pass times
   the same items, each item counts with the median of its times over the
   passes and the percentiles are taken over those.  Otherwise the passes
   are pooled in consecutive groups of [pooled_items] items or more, and a
   percentile is its median over the groups.  The pass time and the work
   rate are medians over passes.  Returns the pass time, the item
   percentile function and the work rate. *)
let steady ~(w : Workload.t) passes =
  let ranked p = List.filteri (fun i _ -> i < p.Workload.ranked) p.Workload.items_ms in
  let per_pass = List.map ranked passes in
  let pct =
    if w.Workload.same_items then begin
      let per_pass = List.map Array.of_list per_pass in
      let items =
        List.init
          (Array.length (List.hd per_pass))
          (fun i -> Measure.median (List.map (fun a -> a.(i)) per_pass))
      in
      Measure.pct items
    end
    else begin
      let k = (pooled_items / max 1 (List.length (List.hd per_pass))) + 1 in
      let groups =
        if List.length passes < 2 * k then [ List.concat per_pass ]
        else
          List.init (List.length passes / k) (fun g ->
              List.concat (List.filteri (fun i _ -> i / k = g) per_pass))
      in
      fun q -> Measure.median (List.map (fun g -> Measure.pct g q) groups)
    end
  in
  ( Measure.median (List.map (fun p -> p.Workload.pass_s) passes),
    pct,
    Measure.median (List.map (fun p -> p.Workload.work /. p.Workload.pass_s) passes) )

let end_to_end ~setup_s ~passes ~(w : Workload.t) =
  let q = w.Workload.quality () in
  let pass_s, pct, work_per_s = steady ~w passes in
  let attempted = float_of_int !Measure.attempted in
  [
    ("setup_s", setup_s, "s");
    ("pass_s", pass_s, "s");
    ("item_ms_p50", pct 50., "ms");
    ("item_ms_p90", pct 90., "ms");
    ("item_ms_p99", pct 99., "ms");
    ("work_per_s", work_per_s, "1/s");
    ("peak_rss_mb", w.Workload.peak_rss_mb (), "MiB");
    ("ok_pct", 100. *. (attempted -. float_of_int !Measure.failed) /. attempted, "%");
    ("speedup_pct", q.Workload.speedup_pct, "%");
    ("area_pct", q.Workload.area_pct, "%");
    ("lambda_geomean", q.Workload.lambda_geomean, "gate-delays");
  ]

(* Every per-layer metric, on every workload: a layer the workload does not
   reach reads 0.  Times and counts are per traced pass. *)
let per_layer ~traced ~untraced ~(w : Workload.t) =
  let n = float_of_int (List.length traced) in
  let ms name = 1000. *. Measure.span_s name /. n in
  let per_pass name = Measure.counter name /. n in
  let ratio num den = if den = 0. then 0. else num /. den in
  let extra = w.Workload.layers () in
  let serve name = Option.value ~default:0. (List.assoc_opt name extra) in
  [
    ("sim.ms", ms "sim", "ms");
    ("sim.gate_waves", per_pass "sim.gate_waves", "count");
    ( "sim.ns_per_gate_wave",
      1e9 *. ratio (Measure.span_s "sim") (Measure.counter "sim.gate_waves"),
      "ns" );
    ("perf.analyze_ms", ms "perf.analyze", "ms");
    ("perf.analyze_calls", per_pass "perf.analyze_calls", "count");
    ("perf.events", per_pass "perf.events", "count");
    ("rtl.elaborate_ms", ms "rtl.elaborate", "ms");
    ("rtl.bitblast_ms", ms "rtl.bitblast", "ms");
    ("phased.plmap_ms", ms "phased.plmap", "ms");
    ("core.eeplan_ms", ms "core.eeplan", "ms");
    ("core.mcr_select_ms", ms "core.mcr_select", "ms");
    ("core.ee_pairs", per_pass "core.ee_pairs", "count");
    ( "core.memo_hit_ratio",
      ratio (Measure.counter "core.memo_hits") (Measure.counter "core.memo_lookups"),
      "ratio" );
    ("search.select_ms", ms "search.select", "ms");
    ("search.trials", per_pass "search.trials", "count");
    ( "search.accept_ratio",
      ratio (Measure.counter "search.accepted") (Measure.counter "search.trials"),
      "ratio" );
    ("frontend.parse_ms", ms "frontend.parse", "ms");
    ( "frontend.parse_mb_per_s",
      ratio (Measure.counter "frontend.bytes" /. 1e6) (Measure.span_s "frontend.parse"),
      "MB/s" );
    ("frontend.remap_ms", ms "frontend.remap", "ms");
    ("netlist.equiv_ms", ms "netlist.equiv", "ms");
    ("netlist.equiv_proven", per_pass "netlist.equiv_proven", "count");
    ("netlist.equiv_skipped", per_pass "netlist.equiv_skipped", "count");
    ("fault.campaign_ms", ms "fault.campaign", "ms");
    ("fault.faults", per_pass "fault.faults", "count");
    ( "fault.us_per_fault_wave",
      1e6 *. ratio (Measure.span_s "fault.campaign") (Measure.counter "fault.fault_waves"),
      "us" );
    ("serve.synth_ms_p50", serve "serve.synth_ms_p50", "ms");
    ("serve.import_ms_p50", serve "serve.import_ms_p50", "ms");
    ("serve.overhead_ms_p50", serve "serve.overhead_ms_p50", "ms");
    ("serve.cold_ms_p50", serve "serve.cold_ms_p50", "ms");
    ("serve.rejected", serve "serve.rejected", "count");
    ("cache.hit_ratio", serve "cache.hit_ratio", "ratio");
    ("gc.minor_mwords_per_pass", !Measure.gc_minor_words /. 1e6 /. n, "Mwords");
    ("gc.major_collections_per_pass", float_of_int !Measure.gc_major_collections /. n, "count");
    ("gc.top_heap_mb", Measure.top_heap_mb (), "MiB");
    ("trace.pass_s", Measure.median traced, "s");
    ("trace.overhead_s", Measure.median traced -. Measure.median untraced, "s");
  ]

let run args =
  let reference = Reference.load args.reference in
  let seed = Reference.variant_seed args.seed in
  (* Set-up (input generation, daemon start, cache warm-up) is timed on its
     own, several times, and kept out of every pass. *)
  let setups = ref [] in
  let instance = ref None in
  for _ = 1 to setup_reps do
    Option.iter (fun (w : Workload.t) -> w.Workload.stop ()) !instance;
    instance := None;
    let w, dt, _ = Measure.scaled_wall (fun () -> prepare args ~reference ~seed) in
    setups := dt :: !setups;
    instance := Some w
  done;
  let w = Option.get !instance in
  let metrics, correct =
    Fun.protect ~finally:w.Workload.stop (fun () ->
        let fingerprint_ok =
          Reference.fingerprint reference ~workload:args.workload ~seed = Some w.Workload.fingerprint
        in
        Measure.attempt fingerprint_ok
          (Printf.sprintf "%s inputs at seed %d have fingerprint %s, not the recorded one"
             args.workload seed w.Workload.fingerprint);
        (* With --trace 1, traced and untraced passes alternate; the
           difference of their medians is the tracing overhead. *)
        let traced = ref [] and untraced = ref [] in
        let start = Measure.now () in
        let k = ref 0 in
        while
          !untraced = [] || (args.trace && !traced = []) || Measure.now () -. start < args.seconds
        do
          let trace_this = args.trace && !k mod 2 = 0 in
          Measure.tracing := trace_this;
          let p = Measure.with_gc w.Workload.pass in
          Measure.tracing := false;
          if trace_this then traced := p.Workload.pass_s :: !traced else untraced := p :: !untraced;
          incr k
        done;
        let metrics =
          if args.trace then
            per_layer ~traced:!traced ~untraced:(List.map (fun p -> p.Workload.pass_s) !untraced) ~w
          else end_to_end ~setup_s:(Measure.median !setups) ~passes:!untraced ~w
        in
        (metrics, fingerprint_ok && !Measure.failed = 0))
  in
  Measure.emit ~correct metrics;
  if not correct then exit 1

let record path =
  let per_seed f =
    Ee_export.Json.Obj (List.map (fun s -> (string_of_int s, f s)) Reference.all_variant_seeds)
  in
  let fingerprint workload seed =
    let w =
      match workload with
      | "table3" -> Table3.fingerprint ~seed
      | "import_select" -> Import_select.fingerprint (Import_select.generate ~seed)
      | "fault_campaign" -> Fault_campaign.fingerprint ~seed (Fault_campaign.artifacts ())
      | _ -> Serve_mixed.fingerprint ~seed
    in
    Ee_export.Json.String w
  in
  Reference.save path
    (Ee_export.Json.Obj
       [
         ("variants", Ee_export.Json.Int Reference.variants);
         ( "fingerprints",
           Ee_export.Json.Obj (List.map (fun w -> (w, per_seed (fingerprint w))) workloads) );
         ("table3", per_seed (fun seed -> Table3.record ~seed));
         ("fault_campaign", per_seed (fun seed -> Fault_campaign.record ~seed));
       ])

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 20. and trace = ref 0 in
  let reference = ref "eebench/reference.json" in
  let daemon = ref "_build/default/bin/ee_synthd.exe" in
  let record_to = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics instead of end-to-end ones");
      ("--reference", Arg.Set_string reference, " recorded references (JSON)");
      ("--daemon", Arg.Set_string daemon, " ee_synthd executable for serve_mixed");
      ("--record", Arg.Set_string record_to, " write the references to this file and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "eebench.exe --workload W --seed N --seconds S --trace 0|1";
  if !record_to <> "" then record !record_to
  else if not (List.mem !workload workloads) then begin
    prerr_endline ("eebench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end
  else
    run
      {
        workload = !workload;
        seed = !seed;
        seconds = !seconds;
        trace = !trace = 1;
        reference = !reference;
        daemon = !daemon;
      }
