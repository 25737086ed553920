(* The benchmark's calls into the libraries it measures, each wrapped in a
   span named after the layer, with the layer's work counted beside it. *)

module Pipeline = Ee_report.Pipeline
module Pl = Ee_phased.Pl
module Sim = Ee_sim.Sim
module Throughput = Ee_perf.Throughput
module Memo = Ee_core.Trigger.Memo

let layer_of_stage = function
  | "rtl" -> "rtl.elaborate"
  | "bit-blast" -> "rtl.bitblast"
  | "pl-map" -> "phased.plmap"
  | "ee-plan" -> "core.eeplan"
  | stage -> "pipeline." ^ stage

let instrument = { Pipeline.wrap = (fun stage f -> Measure.span (layer_of_stage stage) f) }

let build ~memo b =
  let a = Pipeline.build_staged ~memo ~instrument b in
  Measure.count "core.ee_pairs" (float_of_int a.Pipeline.synth_report.Ee_core.Synth.ee_gates);
  a

let simulate pl ~vectors ~seed =
  Measure.count "sim.gate_waves" (float_of_int (Array.length (Pl.gates pl) * vectors));
  Measure.span "sim" (fun () -> Sim.run_random pl ~vectors ~seed)

let gate_delay = Sim.default_config.Sim.gate_delay

let ee_overhead = Sim.default_config.Sim.ee_overhead

let analyze pl =
  let a = Measure.span "perf.analyze" (fun () -> Throughput.analyze ~gate_delay ~ee_overhead pl) in
  Measure.count "perf.analyze_calls" 1.;
  Measure.count "perf.events" (float_of_int a.Throughput.events);
  a

(* A fresh trigger-candidate memo per pass, so warmth left by an earlier
   pass never hides trigger enumeration; its hit counts go to the trace. *)
let with_fresh_memo f =
  let memo = Memo.create () in
  let r = f memo in
  Measure.count "core.memo_hits" (float_of_int (Memo.hits memo));
  Measure.count "core.memo_lookups" (float_of_int (Memo.hits memo + Memo.misses memo));
  r
