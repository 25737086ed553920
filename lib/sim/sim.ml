module Pl = Ee_phased.Pl

type config = { gate_delay : float; ee_overhead : float }

let default_config = { gate_delay = 1.0; ee_overhead = 0.25 }

type wave = {
  outputs : bool array;
  output_time : float;
  settle_time : float;
  early_fires : int;
}

type t = {
  pl : Pl.t;
  config : config;
  delays : float array; (* per-gate firing latency *)
  state : bool array; (* register values, indexed by gate id *)
  values : bool array; (* scratch, per wave *)
  times : float array; (* scratch, per wave; 0 for token holders *)
}

let reset t =
  Array.fill t.state 0 (Array.length t.state) false;
  Array.iter
    (fun i -> t.state.(i) <- Option.get (Pl.initial_token t.pl i))
    (Pl.register_ids t.pl)

let create_with_delays ?(config = default_config) ~delays pl =
  let n = Array.length (Pl.gates pl) in
  if Array.length delays <> n then invalid_arg "Sim.create_with_delays: delay count";
  let t =
    {
      pl;
      config;
      delays = Array.copy delays;
      state = Array.make n false;
      values = Array.make n false;
      times = Array.make n 0.;
    }
  in
  reset t;
  t

let create ?(config = default_config) pl =
  create_with_delays ~config
    ~delays:(Array.make (Array.length (Pl.gates pl)) config.gate_delay)
    pl

(* [Stdlib.max]/[min] at type float: compared unboxed, so a wave allocates
   nothing per gate. *)
let fmax (a : float) b = if a >= b then a else b

let fmin (a : float) b = if a <= b then a else b

(* times.(i) <- latest arrival over [fanin] (0 when there is none). *)
let store_arrival times i fanin =
  let latest = ref 0. in
  for k = 0 to Array.length fanin - 1 do
    latest := fmax !latest times.(fanin.(k))
  done;
  times.(i) <- !latest

let apply t vector =
  let pl = t.pl in
  let gates = Pl.gates pl in
  let cfg = t.config in
  if Array.length vector <> Array.length (Pl.source_ids pl) then
    invalid_arg "Sim.apply: wrong vector length";
  let values = t.values and times = t.times and delays = t.delays in
  let value f = values.(f) in
  let settle = ref 0. in
  let early = ref 0 in
  let topo = Pl.topo pl in
  for j = 0 to Array.length topo - 1 do
    let i = topo.(j) in
    let g = gates.(i) in
    match g.Pl.kind with
    (* Token holders start every wave at time 0, which [times] keeps. *)
    | Pl.Source _ -> values.(i) <- vector.(Pl.source_pos pl i)
    | Pl.Const_source v -> values.(i) <- v
    | Pl.Register _ -> values.(i) <- t.state.(i)
    | Pl.Gate func | Pl.Trigger { func; _ } -> (
        values.(i) <- Pl.eval_lut func g.Pl.fanin value;
        store_arrival times i g.Pl.fanin;
        let arrival = times.(i) in
        let normal = arrival +. delays.(i) in
        match Pl.ee pl i with
        | None ->
            times.(i) <- normal;
            settle := fmax !settle normal
        | Some e ->
            let trig_time = times.(e.Pl.trigger) in
            let guarded = fmax normal (trig_time +. delays.(i)) +. cfg.ee_overhead in
            let fire_time =
              if values.(e.Pl.trigger) then begin
                let early_time = trig_time +. cfg.ee_overhead in
                if early_time < guarded then incr early;
                fmin guarded early_time
              end
              else guarded
            in
            times.(i) <- fire_time;
            (* The master's late input tokens must still be absorbed before
               the wave is over, even when the output fired early. *)
            settle := fmax !settle (fmax fire_time arrival))
    | Pl.Sink _ ->
        values.(i) <- values.(g.Pl.fanin.(0));
        times.(i) <- times.(g.Pl.fanin.(0));
        settle := fmax !settle times.(i)
  done;
  (* Registers fire on their D arrival, capturing the next wave's token. *)
  let registers = Pl.register_ids pl in
  for j = 0 to Array.length registers - 1 do
    let d = gates.(registers.(j)).Pl.fanin.(0) in
    settle := fmax !settle (times.(d) +. delays.(registers.(j)));
    t.state.(registers.(j)) <- values.(d)
  done;
  let sink_ids = Pl.sink_ids pl in
  let output_time = ref 0. in
  for k = 0 to Array.length sink_ids - 1 do
    output_time := fmax !output_time times.(sink_ids.(k))
  done;
  {
    outputs = Array.map value sink_ids;
    output_time = !output_time;
    settle_time = !settle;
    early_fires = !early;
  }

let probe t = (Array.copy t.values, Array.copy t.times)

type run = {
  waves : int;
  avg_output_time : float;
  avg_settle_time : float;
  output_times : float array;
  settle_times : float array;
  early_fire_rate : float;
}

let run_vectors ?(config = default_config) pl vectors =
  let t = create ~config pl in
  let waves = List.length vectors in
  if waves = 0 then invalid_arg "Sim.run_vectors: no vectors";
  let output_times = Array.make waves 0. in
  let settle_times = Array.make waves 0. in
  let ee_total = Pl.ee_gate_count pl in
  let early_sum = ref 0 in
  List.iteri
    (fun k vec ->
      let w = apply t vec in
      output_times.(k) <- w.output_time;
      settle_times.(k) <- w.settle_time;
      early_sum := !early_sum + w.early_fires)
    vectors;
  {
    waves;
    avg_output_time = Ee_util.Stats.mean output_times;
    avg_settle_time = Ee_util.Stats.mean settle_times;
    output_times;
    settle_times;
    early_fire_rate =
      (if ee_total = 0 then 0.
       else float_of_int !early_sum /. float_of_int (ee_total * waves));
  }

let run_random ?(config = default_config) pl ~vectors ~seed =
  let rng = Ee_util.Prng.create seed in
  let width = Array.length (Pl.source_ids pl) in
  let vecs = List.init vectors (fun _ -> Ee_util.Prng.bool_vector rng width) in
  run_vectors ~config pl vecs

let equiv_random pl nl ~vectors ~seed =
  let rng = Ee_util.Prng.create seed in
  let t = create pl in
  let st = ref (Ee_netlist.Netlist.initial_state nl) in
  let width = Array.length (Pl.source_ids pl) in
  let ok = ref true in
  for _ = 1 to vectors do
    if !ok then begin
      let vec = Ee_util.Prng.bool_vector rng width in
      let w = apply t vec in
      let outs, st' = Ee_netlist.Netlist.step nl !st vec in
      st := st';
      if w.outputs <> outs then ok := false
    end
  done;
  !ok
