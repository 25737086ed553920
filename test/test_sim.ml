module Sim = Ee_sim.Sim
module Pl = Ee_phased.Pl
module Netlist = Ee_netlist.Netlist
module Lut4 = Ee_logic.Lut4

(* Random sequential netlist generator: a handful of inputs and registers,
   then a pile of random LUTs wired to earlier nodes. *)
let random_netlist seed =
  let rng = Ee_util.Prng.create seed in
  let b = Netlist.builder () in
  let n_in = 2 + Ee_util.Prng.int rng 4 in
  let n_dff = 1 + Ee_util.Prng.int rng 3 in
  let n_lut = 5 + Ee_util.Prng.int rng 25 in
  let inputs = List.init n_in (fun i -> Netlist.add_input b (Printf.sprintf "i%d" i)) in
  let dffs = List.init n_dff (fun _ -> Netlist.add_dff b ~init:(Ee_util.Prng.bool rng)) in
  let pool = ref (inputs @ dffs) in
  for _ = 1 to n_lut do
    let arr = Array.of_list !pool in
    let k = 1 + Ee_util.Prng.int rng 4 in
    let fanin = Array.init k (fun _ -> arr.(Ee_util.Prng.int rng (Array.length arr))) in
    let func = Lut4.of_int (Ee_util.Prng.bits rng 16 land Ee_util.Bits.mask 16) in
    (* Mask the function so it only depends on connected inputs. *)
    let func =
      List.fold_left
        (fun f v -> if v >= k then Lut4.restrict f ~var:v ~value:false else f)
        func [ 0; 1; 2; 3 ]
    in
    let func = if Lut4.equal func Lut4.const0 then Lut4.var 0 else func in
    pool := Netlist.add_lut b func fanin :: !pool
  done;
  let arr = Array.of_list !pool in
  let pick () = arr.(Ee_util.Prng.int rng (Array.length arr)) in
  List.iter (fun d -> Netlist.connect_dff b d ~d:(pick ())) dffs;
  for i = 0 to 1 + Ee_util.Prng.int rng 3 do
    Netlist.set_output b (Printf.sprintf "o%d" i) (pick ())
  done;
  Netlist.finalize b

let qtest name ?(count = 60) prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count QCheck.(int_range 0 1_000_000) prop)

let prop_pl_matches_golden =
  qtest "PL wave simulation = synchronous golden model" (fun seed ->
      let nl = random_netlist seed in
      let pl = Pl.of_netlist nl in
      Sim.equiv_random pl nl ~vectors:40 ~seed:(seed + 1))

let prop_ee_matches_golden =
  qtest "EE netlist still matches the golden model" (fun seed ->
      let nl = random_netlist seed in
      let pl = Pl.of_netlist nl in
      let pl_ee, _ = Ee_core.Synth.run pl in
      Sim.equiv_random pl_ee nl ~vectors:40 ~seed:(seed + 2))

let prop_ee_never_slower_per_gate =
  qtest "EE settle <= no-EE settle + overhead bound" (fun seed ->
      let nl = random_netlist seed in
      let pl = Pl.of_netlist nl in
      let pl_ee, report = Ee_core.Synth.run pl in
      let base = Sim.run_random pl ~vectors:30 ~seed in
      let ee = Sim.run_random pl_ee ~vectors:30 ~seed in
      (* Worst case every EE master on the critical path pays the overhead;
         the settle time can never grow by more than overhead * depth. *)
      let bound =
        base.Sim.avg_settle_time
        +. (0.25 *. float_of_int (1 + List.length report.Ee_core.Synth.inserted))
      in
      ee.Sim.avg_settle_time <= bound +. 1e-9)

let prop_output_before_settle =
  qtest "output time <= settle time" (fun seed ->
      let nl = random_netlist seed in
      let pl = Pl.of_netlist nl in
      let r = Sim.run_random pl ~vectors:20 ~seed in
      Array.for_all2 (fun o s -> o <= s +. 1e-9) r.Sim.output_times r.Sim.settle_times)

let prop_no_ee_settle_constant =
  qtest "without EE the settle time is data-independent" (fun seed ->
      let nl = random_netlist seed in
      let pl = Pl.of_netlist nl in
      let r = Sim.run_random pl ~vectors:20 ~seed in
      Array.for_all (fun s -> s = r.Sim.settle_times.(0)) r.Sim.settle_times)

(* Exact-timing unit test on the quickstart circuit: buf-buf-carry chain. *)
let quickstart_pl () =
  let b = Netlist.builder () in
  let a = Netlist.add_input b "a" in
  let bb = Netlist.add_input b "b" in
  let c = Netlist.add_input b "cin" in
  let buf1 = Netlist.add_lut b (Lut4.var 0) [| c |] in
  let buf2 = Netlist.add_lut b (Lut4.var 0) [| buf1 |] in
  let carry = Netlist.add_lut b Ee_core.Trigger.full_adder_carry [| buf2; bb; a |] in
  Netlist.set_output b "cout" carry;
  let nl = Netlist.finalize b in
  let pl = Pl.of_netlist nl in
  let pl_ee, _ = Ee_core.Synth.run pl in
  (pl, pl_ee)

let test_exact_times_no_ee () =
  let pl, _ = quickstart_pl () in
  let sim = Sim.create pl in
  let w = Sim.apply sim [| true; true; false |] in
  (* Critical path: cin -> buf -> buf -> carry = 3 gate delays. *)
  Alcotest.(check (float 1e-9)) "output time" 3. w.Sim.output_time;
  Alcotest.(check (float 1e-9)) "settle time" 3. w.Sim.settle_time;
  Alcotest.(check int) "no early fires" 0 w.Sim.early_fires

let test_exact_times_ee_early () =
  let _, pl_ee = quickstart_pl () in
  let sim = Sim.create pl_ee in
  (* a = b = 1: generate case; trigger fires at 1.0, master at 1.25. *)
  let w = Sim.apply sim [| true; true; false |] in
  Alcotest.(check bool) "value correct" true w.Sim.outputs.(0);
  Alcotest.(check (float 1e-9)) "early output" 1.25 w.Sim.output_time;
  Alcotest.(check int) "one early fire" 1 w.Sim.early_fires;
  (* Late tokens (buf chain) still bound the settle. *)
  Alcotest.(check (float 1e-9)) "settle waits for late inputs" 2. w.Sim.settle_time

let test_exact_times_ee_propagate () =
  let _, pl_ee = quickstart_pl () in
  let sim = Sim.create pl_ee in
  (* a=1, b=0: propagate; master waits for cin and pays the overhead. *)
  let w = Sim.apply sim [| true; false; true |] in
  Alcotest.(check bool) "value correct" true w.Sim.outputs.(0);
  Alcotest.(check (float 1e-9)) "guarded fire" 3.25 w.Sim.output_time;
  Alcotest.(check int) "no early fire" 0 w.Sim.early_fires

let test_custom_config () =
  let _, pl_ee = quickstart_pl () in
  let sim = Sim.create ~config:{ Sim.gate_delay = 2.0; ee_overhead = 0.5 } pl_ee in
  let w = Sim.apply sim [| true; true; false |] in
  (* Trigger at 2.0, master at 2.5. *)
  Alcotest.(check (float 1e-9)) "scaled early fire" 2.5 w.Sim.output_time

let test_register_state_carries () =
  (* A 1-bit toggler: output alternates across waves. *)
  let b = Netlist.builder () in
  let d = Netlist.add_dff b ~init:false in
  let inv = Netlist.add_lut b (Lut4.lognot (Lut4.var 0)) [| d |] in
  Netlist.connect_dff b d ~d:inv;
  Netlist.set_output b "q" d;
  let pl = Pl.of_netlist (Netlist.finalize b) in
  let sim = Sim.create pl in
  let values = List.init 4 (fun _ -> (Sim.apply sim [||]).Sim.outputs.(0)) in
  Alcotest.(check (list bool)) "toggles" [ false; true; false; true ] values;
  Sim.reset sim;
  Alcotest.(check bool) "reset restores" false (Sim.apply sim [||]).Sim.outputs.(0)

let test_run_stats () =
  let pl, pl_ee = quickstart_pl () in
  let r = Sim.run_random pl ~vectors:50 ~seed:4 in
  Alcotest.(check int) "waves" 50 r.Sim.waves;
  Alcotest.(check (float 1e-9)) "no-EE early rate" 0. r.Sim.early_fire_rate;
  let r' = Sim.run_random pl_ee ~vectors:400 ~seed:4 in
  (* Generate/kill happens for half the (a,b) pairs. *)
  Alcotest.(check bool) "early rate near 0.5" true
    (r'.Sim.early_fire_rate > 0.35 && r'.Sim.early_fire_rate < 0.65)

let test_wrong_vector_length () =
  let pl, _ = quickstart_pl () in
  let sim = Sim.create pl in
  Alcotest.check_raises "length check" (Invalid_argument "Sim.apply: wrong vector length")
    (fun () -> ignore (Sim.apply sim [| true |]))

let bench_pl id =
  let nl =
    Ee_rtl.Techmap.run_rtl ((Ee_bench_circuits.Itc99.find id).Ee_bench_circuits.Itc99.build ())
  in
  (nl, Pl.of_netlist nl)

let random_vectors pl n seed =
  let rng = Ee_util.Prng.create seed in
  let width = Array.length (Pl.source_ids pl) in
  List.init n (fun _ -> Ee_util.Prng.bool_vector rng width)

(* Minor words one warm [Sim.apply] wave allocates beyond the output vector
   it returns (one header word plus one word per sink). *)
let words_per_wave pl =
  let sim = Sim.create pl in
  let vectors = Array.of_list (random_vectors pl 30 5) in
  for k = 0 to 9 do
    ignore (Sim.apply sim vectors.(k))
  done;
  let before = Gc.minor_words () in
  for k = 10 to 29 do
    ignore (Sim.apply sim vectors.(k))
  done;
  let words = (Gc.minor_words () -. before) /. 20. in
  words -. float_of_int (Array.length (Pl.sink_ids pl) + 1)

let test_apply_allocation_per_wave () =
  (* b12 has about 1.5x b03's gates: equal words per wave means a wave
     allocates nothing per gate. *)
  let ee id = fst (Ee_core.Synth.run (snd (bench_pl id))) in
  Alcotest.(check (float 0.)) "b03 and b12 allocate the same per wave"
    (words_per_wave (ee "b03")) (words_per_wave (ee "b12"))

let test_shared_triggers_b01_b13 () =
  let options = { Ee_core.Synth.default_options with Ee_core.Synth.share_triggers = true } in
  let merged = ref 0 in
  for k = 1 to 13 do
    let id = Printf.sprintf "b%02d" k in
    let nl, pl = bench_pl id in
    let pl_sh, report = Ee_core.Synth.run ~options pl in
    merged := !merged + List.length report.Ee_core.Synth.inserted - Pl.ee_gate_count pl_sh;
    Alcotest.(check bool) (id ^ " rail check") true
      (Ee_phased.Rail_sim.run_check pl_sh nl ~vectors:20 ~seed:k);
    let vectors = random_vectors pl_sh 20 k in
    let stream = Ee_sim.Stream_sim.run pl_sh ~vectors in
    let sim = Sim.create pl_sh in
    List.iteri
      (fun w vec ->
        Alcotest.(check (array bool))
          (Printf.sprintf "%s wave %d stream = sim" id w)
          (Sim.apply sim vec).Sim.outputs stream.Ee_sim.Stream_sim.outputs.(w))
      vectors;
    let m = Ee_perf.Timed_graph.of_pl ~mode:Ee_perf.Timed_graph.Guarded pl_sh in
    let projected =
      Array.map
        (fun (a : Ee_perf.Timed_graph.arc) ->
          (m.Ee_perf.Timed_graph.event_gate.(a.src), m.Ee_perf.Timed_graph.event_gate.(a.dst), a.tokens))
        m.Ee_perf.Timed_graph.graph.Ee_perf.Timed_graph.arcs
    in
    let sorted a = List.sort compare (Array.to_list a) in
    Alcotest.(check (list (triple int int int)))
      (id ^ " guarded event graph = marked graph")
      (sorted (Ee_markedgraph.Marked_graph.arcs (Pl.to_marked_graph pl_sh)))
      (sorted projected)
  done;
  Alcotest.(check bool) "some trigger is shared" true (!merged > 0)

let suite =
  ( "sim",
    [
      Alcotest.test_case "exact times (no EE)" `Quick test_exact_times_no_ee;
      Alcotest.test_case "exact times (EE early)" `Quick test_exact_times_ee_early;
      Alcotest.test_case "exact times (EE propagate)" `Quick test_exact_times_ee_propagate;
      Alcotest.test_case "custom config" `Quick test_custom_config;
      Alcotest.test_case "register state carries" `Quick test_register_state_carries;
      Alcotest.test_case "run stats" `Quick test_run_stats;
      Alcotest.test_case "wrong vector length" `Quick test_wrong_vector_length;
      Alcotest.test_case "apply allocates nothing per gate" `Quick
        test_apply_allocation_per_wave;
      Alcotest.test_case "shared triggers: rail, stream, timed graph (b01-b13)" `Quick
        test_shared_triggers_b01_b13;
      prop_pl_matches_golden;
      prop_ee_matches_golden;
      prop_ee_never_slower_per_gate;
      prop_output_before_settle;
      prop_no_ee_settle_constant;
    ] )
