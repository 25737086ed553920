module Mg = Ee_markedgraph.Marked_graph
module Pl = Ee_phased.Pl

type arc = { src : int; dst : int; weight : float; tokens : int }

type t = { nodes : int; arcs : arc array }

let make ~nodes ~arcs =
  let arcs = Array.of_list arcs in
  Array.iter
    (fun a ->
      if a.src < 0 || a.src >= nodes || a.dst < 0 || a.dst >= nodes then
        invalid_arg "Timed_graph.make: arc endpoint out of range";
      if a.tokens < 0 then invalid_arg "Timed_graph.make: negative tokens";
      if not (Float.is_finite a.weight) then
        invalid_arg "Timed_graph.make: non-finite weight")
    arcs;
  { nodes; arcs }

let of_marked_graph mg ~node_delay =
  let arcs =
    Mg.arcs mg |> Array.to_list
    |> List.map (fun (src, dst, tokens) ->
           { src; dst; weight = node_delay dst; tokens })
  in
  make ~nodes:(Mg.node_count mg) ~arcs

type ee_mode = Guarded | Eager | Expected of (int -> float)

type mapping = {
  graph : t;
  event_gate : int array;
  event_early : bool array;
  output_event : int array;
  complete_event : int array;
}

let coverage_probability pl i =
  match Pl.ee pl i with
  | None -> 0.
  | Some e -> Float.min 1. (Float.max 0. (e.Pl.coverage /. 100.))

let of_pl ?(gate_delay = 1.0) ?(ee_overhead = 0.25) ?delays ?mode pl =
  let gates = Pl.gates pl in
  let n = Array.length gates in
  (match delays with
  | Some d when Array.length d <> n ->
      invalid_arg "Timed_graph.of_pl: delays length mismatch"
  | _ -> ());
  let mode =
    match mode with Some m -> m | None -> Expected (coverage_probability pl)
  in
  let base i =
    match gates.(i).Pl.kind with
    | Pl.Source _ | Pl.Const_source _ | Pl.Sink _ -> 0.
    | Pl.Gate _ | Pl.Register _ | Pl.Trigger _ -> (
        match delays with Some d -> d.(i) | None -> gate_delay)
  in
  (* A master splits into an output event and a completion event whenever
     its trigger can actually fire; under Guarded it stays a single event
     whose delay absorbs the C-element overhead. *)
  let split i =
    match (mode, Pl.ee pl i) with
    | (Eager | Expected _), Some _ -> true
    | _ -> false
  in
  (* The gate's firing latency as seen by its completion event. *)
  let full_delay i =
    match Pl.ee pl i with
    | Some _ -> base i +. ee_overhead
    | None -> base i
  in
  let output_event = Array.make n 0 in
  let complete_event = Array.make n 0 in
  let next = ref 0 in
  for i = 0 to n - 1 do
    complete_event.(i) <- !next;
    incr next;
    if split i then begin
      output_event.(i) <- !next;
      incr next
    end
    else output_event.(i) <- complete_event.(i)
  done;
  let events = !next in
  let event_gate = Array.make events 0 in
  let event_early = Array.make events false in
  for i = 0 to n - 1 do
    event_gate.(complete_event.(i)) <- i;
    event_gate.(output_event.(i)) <- i;
    event_early.(output_event.(i)) <- output_event.(i) <> complete_event.(i)
  done;
  let arcs = ref [] in
  let add src dst weight tokens = arcs := { src; dst; weight; tokens } :: !arcs in
  (* Probability that master [i]'s trigger fires, for Expected weights. *)
  let prob i =
    match mode with
    | Expected p -> Float.min 1. (Float.max 0. (p i))
    | Eager -> 1.
    | Guarded -> 0.
  in
  for i = 0 to n - 1 do
    (* One data/feedback arc pair per distinct producer ([Pl.producers]).
       A producer matters to the early C-element when it is the trigger or
       feeds a subset position. *)
    let early_relevant src =
      match Pl.ee pl i with
      | Some e ->
          src = e.Pl.trigger
          || Ee_util.Bits.fold_bits e.Pl.support
               (fun acc p -> acc || gates.(i).Pl.fanin.(p) = src)
               false
      | None -> false
    in
    Array.iter
      (fun src ->
        let data_tokens = if Pl.initial_token pl src = None then 0 else 1 in
        (* Data direction: producer's output event -> consumer firing. *)
        let src_ev = output_event.(src) in
        if split i then begin
          (* Completion waits for every input with the full latency. *)
          add src_ev complete_event.(i) (full_delay i) data_tokens;
          (* The early C-element waits for the subset inputs and the
             trigger token; under Eager the late inputs impose nothing,
             under Expected they impose their full constraint scaled by
             the probability the trigger stays silent. *)
          let p = prob i in
          if early_relevant src then
            add src_ev output_event.(i)
              (ee_overhead +. ((1. -. p) *. base i))
              data_tokens
          else begin
            match mode with
            | Eager -> ()
            | Expected _ ->
                add src_ev output_event.(i)
                  ((1. -. p) *. (base i +. ee_overhead))
                  data_tokens
            | Guarded -> assert false
          end
        end
        else add src_ev complete_event.(i) (full_delay i) data_tokens;
        (* Feedback direction: this gate acknowledges the producer once per
           wave (no feedback on a register's self-loop).  The acknowledge
           leaves at the completion event and constrains the producer's
           next firing — both of its events, when split. *)
        if Pl.has_feedback ~src ~dst:i then begin
          let fb_tokens = 1 - data_tokens in
          let ack_ev = complete_event.(i) in
          if split src then begin
            add ack_ev complete_event.(src) (full_delay src) fb_tokens;
            let p = prob src in
            add ack_ev output_event.(src)
              (ee_overhead +. ((1. -. p) *. base src))
              fb_tokens
          end
          else add ack_ev complete_event.(src) (full_delay src) fb_tokens
        end)
      (Pl.producers pl i)
  done;
  {
    graph = make ~nodes:events ~arcs:(List.rev !arcs);
    event_gate;
    event_early;
    output_event;
    complete_event;
  }
