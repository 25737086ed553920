(* What every workload gives the main program, [eebench.ml]. *)

(* Times are scaled to the reference host ([Measure.scaled]). *)
type pass = {
  pass_s : float;  (** Time of the pass. *)
  items_ms : float list;
      (** Time of each item of the pass: a circuit from synthesis to
          measurement, one bench's fault campaign, or one warm request. *)
  ranked : int;  (** How many leading items enter the item percentiles. *)
  work : float;  (** Work units done: circuits, injected faults or replies. *)
}

(* A pass of items timed one after another: the pass is their sum. *)
let of_items ~ranked ~work items_ms =
  { pass_s = List.fold_left ( +. ) 0. items_ms /. 1000.; items_ms; ranked; work }

type quality = {
  speedup_pct : float;  (** Mean EE delay or period decrease, percent. *)
  area_pct : float;  (** Mean EE area increase, percent. *)
  lambda_geomean : float;  (** Geometric mean steady-state period, gate delays. *)
}

type t = {
  fingerprint : string;  (** Digest of the generated inputs. *)
  same_items : bool;
      (** Every pass times the same items in the same order, and each item
          counts with its median over the passes.  Otherwise the items of
          consecutive passes are pooled. *)
  pass : unit -> pass;  (** One pass over the inputs; checks its outputs. *)
  quality : unit -> quality;  (** Of the outputs of the passes run so far. *)
  layers : unit -> (string * float) list;
      (** Per-layer metrics only the workload can read (the daemon's). *)
  peak_rss_mb : unit -> float;
  stop : unit -> unit;  (** Release processes and sockets. *)
}
