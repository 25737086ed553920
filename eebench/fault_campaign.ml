(* Workload [fault_campaign]: [Campaign.run] with 16 waves on b01, b03,
   b06, b09 and b12.  It reads the same EE netlists as [table3] but
   through the rail-level simulator, where nearly all of its time goes, so
   a change that speeds up [Sim] and slows [Rail_sim] shows up here.

   b04 is left out: its campaign alone takes ~5.5 s, four fifths of a
   pass, so a run would hold three passes.  Without it a pass takes
   ~1.5 s, and each bench's median time is taken over a dozen passes. *)

module Itc99 = Ee_bench_circuits.Itc99
module Pipeline = Ee_report.Pipeline
module Campaign = Ee_fault.Campaign
module Json = Ee_export.Json

let benches = [ "b01"; "b03"; "b06"; "b09"; "b12" ]

let waves = 16

let artifacts () =
  Layers.with_fresh_memo (fun memo ->
      List.map (fun id -> Pipeline.build_staged ~memo (Itc99.find id)) benches)

(* Per bench: faults, masked, detected, deadlock, wrong-output, then one
   0/1 per fault-free delay schedule. *)
let summary (r : Campaign.report) =
  [
    float_of_int (List.length r.Campaign.records);
    float_of_int r.Campaign.masked;
    float_of_int r.Campaign.detected;
    float_of_int r.Campaign.deadlock;
    float_of_int r.Campaign.wrong_output;
  ]
  @ List.map (fun s -> if s.Campaign.agrees then 1. else 0.) r.Campaign.schedules

let campaign ~seed (a : Pipeline.artifact) =
  Measure.span "fault.campaign" (fun () ->
      Campaign.run ~waves ~seed ~bench:a.Pipeline.id a.Pipeline.pl_ee a.Pipeline.netlist)

let record ~seed =
  Json.Obj
    (List.map
       (fun a -> (a.Pipeline.id, Reference.row_json (summary (campaign ~seed a))))
       (artifacts ()))

(* The RTL designs, and the random stream the campaign's vectors come
   from. *)
let fingerprint ~seed arts =
  Reference.digest_strings
    [
      Marshal.to_string (List.map (fun a -> a.Pipeline.design) arts) [];
      Reference.prng_stream seed;
    ]

let prepare ~reference ~seed =
  let arts = artifacts () in
  {
    Workload.fingerprint = fingerprint ~seed arts;
    same_items = true;
    pass =
      (fun () ->
        let timed =
          List.map
            (fun a ->
              let r, dt = Measure.scaled (fun () -> campaign ~seed a) in
              let faults = List.length r.Campaign.records in
              Measure.count "fault.faults" (float_of_int faults);
              Measure.count "fault.fault_waves" (float_of_int (faults * waves));
              let ok =
                let key = [ "fault_campaign"; string_of_int seed; a.Pipeline.id ] in
                match Reference.find reference key with
                | Some expected -> Reference.row_matches expected (summary r)
                | None -> false
              in
              Measure.attempt ok
                (Printf.sprintf "fault_campaign %s at seed %d: %s differs from the reference"
                   a.Pipeline.id seed (Campaign.summary_string r));
              (faults, dt *. 1000.))
            arts
        in
        Workload.of_items ~ranked:(List.length timed)
          ~work:(float_of_int (List.fold_left (fun acc (f, _) -> acc + f) 0 timed))
          (List.map snd timed));
    (* Quality of the netlists the campaign exercises, computed after the
       timed passes and outside the trace. *)
    quality =
      (fun () ->
        let tracing = !Measure.tracing in
        Measure.tracing := false;
        let rows =
          List.map
            (fun (a : Pipeline.artifact) ->
              let sim pl =
                (Ee_sim.Sim.run_random pl ~vectors:100 ~seed).Ee_sim.Sim.avg_settle_time
              in
              ( Ee_util.Stats.percent_change ~before:(sim a.Pipeline.pl)
                  ~after:(sim a.Pipeline.pl_ee),
                a.Pipeline.synth_report.Ee_core.Synth.area_increase_percent,
                (Layers.analyze a.Pipeline.pl_ee).Ee_perf.Throughput.lambda ))
            arts
        in
        Measure.tracing := tracing;
        {
          Workload.speedup_pct = Measure.mean (List.map (fun (s, _, _) -> s) rows);
          area_pct = Measure.mean (List.map (fun (_, a, _) -> a) rows);
          lambda_geomean = Measure.geomean (List.map (fun (_, _, l) -> l) rows);
        });
    layers = (fun () -> []);
    peak_rss_mb = (fun () -> Measure.peak_rss_mb ());
    stop = ignore;
  }
