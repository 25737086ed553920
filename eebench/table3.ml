(* Workload [table3]: the paper's protocol as is.  All 15 ITC99 circuits,
   Eq. 1 selection, 100 random vectors per circuit; each circuit goes from
   RTL to a simulated and analyzed EE netlist.  Simulation and throughput
   analysis dominate, so this is the workload of [lib/sim] and
   [lib/perf]. *)

module Itc99 = Ee_bench_circuits.Itc99
module Pipeline = Ee_report.Pipeline
module Sim = Ee_sim.Sim
module Json = Ee_export.Json

let vectors = 100

type row = {
  id : string;
  pl_gates : int;
  ee_gates : int;
  area_pct : float;
  delay_no_ee : float;
  delay_ee : float;
  lambda : float;
}

let recorded r =
  [ float_of_int r.pl_gates; float_of_int r.ee_gates; r.delay_no_ee; r.delay_ee; r.lambda ]

let speedup r = Ee_util.Stats.percent_change ~before:r.delay_no_ee ~after:r.delay_ee

let measure_circuit ~memo ~seed (b : Itc99.benchmark) =
  let a = Layers.build ~memo b in
  let base = Layers.simulate a.Pipeline.pl ~vectors ~seed in
  let ee = Layers.simulate a.Pipeline.pl_ee ~vectors ~seed in
  let an = Layers.analyze a.Pipeline.pl_ee in
  let rep = a.Pipeline.synth_report in
  {
    id = b.Itc99.id;
    pl_gates = rep.Ee_core.Synth.pl_gates;
    ee_gates = rep.Ee_core.Synth.ee_gates;
    area_pct = rep.Ee_core.Synth.area_increase_percent;
    delay_no_ee = base.Sim.avg_settle_time;
    delay_ee = ee.Sim.avg_settle_time;
    lambda = an.Ee_perf.Throughput.lambda;
  }

(* The RTL designs the builders produce and the random stream the vectors
   come from. *)
let fingerprint ~seed =
  let designs = List.map (fun (b : Itc99.benchmark) -> (b.Itc99.id, b.Itc99.build ())) Itc99.all in
  Reference.digest_strings [ Marshal.to_string designs []; Reference.prng_stream seed ]

let run_pass ~seed =
  Layers.with_fresh_memo (fun memo ->
      List.map
        (fun b ->
          let row, dt = Measure.scaled (fun () -> measure_circuit ~memo ~seed b) in
          (row, dt *. 1000.))
        Itc99.all)

let record ~seed =
  let rows = List.map fst (run_pass ~seed) in
  (* The recording must agree with the library's own Table 3 path. *)
  let t3 = Ee_report.Tables.run_table3 ~seed () in
  List.iter2
    (fun r (t : Ee_report.Tables.row) ->
      if
        r.id <> t.Ee_report.Tables.id
        || r.pl_gates <> t.Ee_report.Tables.pl_gates
        || r.ee_gates <> t.Ee_report.Tables.ee_gates
        || r.delay_no_ee <> t.Ee_report.Tables.delay_no_ee
        || r.delay_ee <> t.Ee_report.Tables.delay_ee
      then failwith ("table3 recording disagrees with Tables.run_table3 on " ^ r.id))
    rows t3.Ee_report.Tables.rows;
  Json.Obj (List.map (fun r -> (r.id, Reference.row_json (recorded r))) rows)

let check_rows ~reference ~seed rows =
  Measure.attempt (List.length rows = 15) "table3: 15 rows";
  List.iter
    (fun r ->
      let ok =
        match Reference.find reference [ "table3"; string_of_int seed; r.id ] with
        | Some expected -> Reference.row_matches expected (recorded r)
        | None -> false
      in
      Measure.attempt ok
        (Printf.sprintf "table3 %s at seed %d: row differs from the reference" r.id seed))
    rows;
  (* Seed 2002 is EXPERIMENTS.md's Table 3: +20.8 % speedup, +39 % area. *)
  if seed = Reference.base_seed then begin
    let avg f = Measure.mean (List.map f rows) in
    Measure.attempt
      (Printf.sprintf "%.1f" (avg speedup) = "20.8")
      (Printf.sprintf "table3: average speedup %.2f%%, EXPERIMENTS.md says +20.8%%" (avg speedup));
    Measure.attempt
      (Printf.sprintf "%.0f" (avg (fun r -> r.area_pct)) = "39")
      "table3: average area increase differs from EXPERIMENTS.md's +39%"
  end

let prepare ~reference ~seed =
  let last = ref [] in
  {
    Workload.fingerprint = fingerprint ~seed;
    same_items = true;
    pass =
      (fun () ->
        let timed = run_pass ~seed in
        let rows = List.map fst timed in
        check_rows ~reference ~seed rows;
        last := rows;
        Workload.of_items ~ranked:(List.length timed)
          ~work:(float_of_int (List.length rows))
          (List.map snd timed));
    quality =
      (fun () ->
        {
          Workload.speedup_pct = Measure.mean (List.map speedup !last);
          area_pct = Measure.mean (List.map (fun r -> r.area_pct) !last);
          lambda_geomean = Measure.geomean (List.map (fun r -> r.lambda) !last);
        });
    layers = (fun () -> []);
    peak_rss_mb = (fun () -> Measure.peak_rss_mb ());
    stop = ignore;
  }
