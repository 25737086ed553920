(* Workload [import_select]: circuits arrive as text and go through the
   import flow a user runs.  ITC99 b01-b13 exported to BLIF and to binary
   AIGER, plus a seeded [Corpus.generate] set covering all five corpus
   flavors (canonical BLIF, ASCII and binary AIGER, wide-SOP BLIF and
   [.subckt] hierarchies).  Each circuit is parsed, re-mapped,
   proven equivalent, and given Eq. 1, MCR and Search selection, then a
   short simulation.  Selection dominates, so this is the workload of
   [lib/core] and [lib/search].

   b04, b05, b07, b14 and b15 are left out: MCR plus Search selection
   takes 4-12 s on each of b04, b05 and b07 (tens of seconds on b14), so a
   run would hold one pass at most. *)

module Itc99 = Ee_bench_circuits.Itc99
module Netlist = Ee_netlist.Netlist
module Frontend = Ee_frontend.Frontend
module Pl = Ee_phased.Pl
module Sim = Ee_sim.Sim

let itc_ids = [ "b01"; "b02"; "b03"; "b06"; "b08"; "b09"; "b10"; "b11"; "b12"; "b13" ]

let corpus_size = 10

let sim_vectors = 20

(* [Equiv] is a BDD proof; above this many LUTs it is skipped and counted,
   as the repository's corpus sweep does.  b11's cipher also exceeds the
   BDD node limit (after 7.5 s), so it is skipped and counted too. *)
let equiv_max_luts = 300

let equiv_skipped name nl mapped =
  max (Netlist.lut_count nl) (Netlist.lut_count mapped) > equiv_max_luts
  || String.starts_with ~prefix:"b11." name

(* The ITC99 inputs come first and are the same for every seed; only they
   enter the item percentiles and the quality figures, whose ranks and
   means would otherwise move with the corpus a seed draws. *)
type input = { name : string; text : string }

let generate ~seed =
  let itc =
    List.concat_map
      (fun id ->
        let nl = Ee_rtl.Techmap.run_rtl ((Itc99.find id).Itc99.build ()) in
        [
          { name = id ^ ".blif"; text = Ee_export.Blif.to_blif nl };
          { name = id ^ ".aig"; text = Ee_frontend.Aiger.to_binary nl };
        ])
      itc_ids
  in
  let corpus =
    List.map
      (fun (e : Ee_frontend.Corpus.entry) ->
        { name = e.Ee_frontend.Corpus.e_name; text = e.Ee_frontend.Corpus.e_text })
      (Ee_frontend.Corpus.generate ~seed ~n:corpus_size)
  in
  itc @ corpus

let fingerprint inputs =
  Reference.digest_strings (List.concat_map (fun i -> [ i.name; i.text ]) inputs)

type result = {
  lambdas : float list;  (** Eq. 1, MCR and Search periods. *)
  areas : float list;  (** Area increase of each mode, percent. *)
  speedup : float;  (** Period decrease of the Search netlist over no EE, percent. *)
}

let select ~memo name mapped pl =
  let eq1, eq1_rep = Measure.span "core.eeplan" (fun () -> Ee_core.Synth.run ~memo pl) in
  Measure.count "core.ee_pairs" (float_of_int eq1_rep.Ee_core.Synth.ee_gates);
  let mcr, mcr_rep =
    Measure.span "core.mcr_select" (fun () -> Ee_core.Mcr_select.run ~memo pl)
  in
  let search, s =
    Measure.span "search.select" (fun () -> Ee_search.Search_select.run ~memo pl)
  in
  Measure.count "search.trials" (float_of_int s.Ee_search.Search_select.trials);
  Measure.count "search.accepted"
    (float_of_int (List.length s.Ee_search.Search_select.shared_groups));
  let l_eq1 = (Layers.analyze eq1).Ee_perf.Throughput.lambda in
  let l_mcr = (Layers.analyze mcr).Ee_perf.Throughput.lambda in
  let l_search = s.Ee_search.Search_select.lambda in
  Measure.attempt
    (l_search <= s.Ee_search.Search_select.lambda_mcr +. 1e-9)
    (Printf.sprintf "import_select %s: lambda_search %g > lambda_mcr %g" name l_search
       s.Ee_search.Search_select.lambda_mcr);
  (* The closing short simulation of the Search netlist: its outputs must
     agree wave by wave with the synchronous golden model. *)
  Measure.count "sim.gate_waves" (float_of_int (Array.length (Pl.gates search) * sim_vectors));
  let agrees =
    Measure.span "sim" (fun () ->
        Sim.equiv_random search mapped ~vectors:sim_vectors ~seed:Reference.base_seed)
  in
  Measure.attempt agrees
    (Printf.sprintf "import_select %s: EE netlist outputs differ from the golden model" name);
  {
    lambdas = [ l_eq1; l_mcr; l_search ];
    areas =
      [
        eq1_rep.Ee_core.Synth.area_increase_percent;
        mcr_rep.Ee_core.Synth.area_increase_percent;
        s.Ee_search.Search_select.synth.Ee_core.Synth.area_increase_percent;
      ];
    speedup =
      Ee_util.Stats.percent_change ~before:s.Ee_search.Search_select.lambda_no_ee ~after:l_search;
  }

let run_circuit ~memo input =
  Measure.count "frontend.bytes" (float_of_int (String.length input.text));
  match Measure.span "frontend.parse" (fun () -> Frontend.parse input.text) with
  | Error e ->
      Measure.attempt false (Printf.sprintf "import_select %s: parse: %s" input.name e);
      None
  | Ok nl ->
      Measure.attempt true "";
      let mapped = Measure.span "frontend.remap" (fun () -> Ee_frontend.Remap.run nl) in
      if equiv_skipped input.name nl mapped then Measure.count "netlist.equiv_skipped" 1.
      else begin
        let proven =
          Measure.span "netlist.equiv" (fun () ->
              match Ee_netlist.Equiv.check nl mapped with
              | verdict -> verdict = Ee_netlist.Equiv.Equivalent
              | exception Failure _ -> false)
        in
        Measure.attempt proven
          (Printf.sprintf "import_select %s: remap not proven equivalent" input.name);
        Measure.count "netlist.equiv_proven" (if proven then 1. else 0.)
      end;
      let pl = Measure.span "phased.plmap" (fun () -> Pl.of_netlist mapped) in
      Some (select ~memo input.name mapped pl)

let prepare ~seed =
  let inputs = generate ~seed in
  let last = ref [] in
  {
    Workload.fingerprint = fingerprint inputs;
    same_items = true;
    pass =
      (fun () ->
        let timed =
          Layers.with_fresh_memo (fun memo ->
              List.map (fun input -> Measure.scaled (fun () -> run_circuit ~memo input)) inputs)
        in
        let ranked = 2 * List.length itc_ids in
        last := List.filter_map fst (List.filteri (fun i _ -> i < ranked) timed);
        Workload.of_items ~ranked
          ~work:(float_of_int (List.length timed))
          (List.map (fun (_, dt) -> dt *. 1000.) timed));
    quality =
      (fun () ->
        {
          Workload.speedup_pct = Measure.mean (List.map (fun r -> r.speedup) !last);
          area_pct = Measure.mean (List.concat_map (fun r -> r.areas) !last);
          lambda_geomean =
            Measure.geomean
              (List.filter (fun l -> l > 0.) (List.concat_map (fun r -> r.lambdas) !last));
        });
    layers = (fun () -> []);
    peak_rss_mb = (fun () -> Measure.peak_rss_mb ());
    stop = ignore;
  }
