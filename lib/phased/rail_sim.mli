(** Rail-level simulation of phased-logic netlists — Figure 1 executed
    literally.

    Where the token simulators treat a PL gate abstractly, this module keeps
    the actual LEDR wire pair of every signal and the phase bit of every
    gate, and applies the paper's firing rule directly: a gate fires when
    the phase of every input signal (computed as [v XOR t]) differs from
    the gate's own phase; firing latches the LUT4 output into the rail pair
    with the new phase and toggles the gate phase.

    The point of simulating at this level is to witness two facts the token
    abstraction takes on faith:

    - every signal transition flips exactly one of the two rails (the LEDR
      delay-insensitivity property), checked on every firing;
    - an early-evaluation master that fires while its late inputs still
      hold the {e previous} wave's rails nevertheless latches the correct
      value, because the trigger guarantees the function is insensitive to
      those inputs — checked by re-evaluating once the late rails arrive.

    Waves are serialized, as in {!Sim}; this simulator checks values and
    encoding invariants, not timing.

    {b Fault injection.}  The simulator doubles as the execution substrate
    for adversarial campaigns ([Ee_fault]): a {!hooks} record intercepts
    every latch, firing decision and trigger read, so stuck rails, glitches,
    token loss/duplication and trigger-wire corruption are injected into
    the one true simulator rather than a fork of it.  Per-gate round
    {e delays} reorder firings within a wave (the rail-level analogue of a
    delay assignment) without changing which values flow — running the same
    vectors under many adversarial schedules and observing identical
    outputs is the delay-insensitivity claim made executable. *)

type t

(** Instrumentation points, called on every wave.  {!no_hooks} makes each a
    no-op; fault models override individual fields. *)
type hooks = {
  on_latch : wave:int -> gate:int -> Ledr.rails -> Ledr.rails;
      (** Transforms the rail pair a firing actually drives.  Returning the
          argument is the healthy path (self-checked LEDR transition); a
          perturbed pair follows wire physics: a double-rail change raises
          {!Protocol_violation}, a suppressed transition starves the
          consumers (later diagnosed by {!Stalled}), and the other legal
          single-rail transition carries a wrong value onward. *)
  drop_fire : wave:int -> gate:int -> bool;
      (** Token loss: [true] suppresses the gate's firing for that wave. *)
  extra_fire : wave:int -> gate:int -> bool;
      (** Token duplication: [true] makes the gate latch a second time in
          the same wave — an observable protocol breach. *)
  trigger_seen : wave:int -> master:int -> bool -> bool;
      (** The trigger-wire value as seen by an EE master (corruption forces
          or suppresses early firing). *)
}

val no_hooks : hooks

val create : ?hooks:hooks -> ?delays:int array -> Pl.t -> t
(** [delays] gives each gate an extra number of fixpoint rounds between
    becoming enabled and firing (default all zero — fire as soon as
    enabled).  Raises [Invalid_argument] on a length mismatch or negative
    delay. *)

val reset : t -> unit

exception Protocol_violation of string
(** An observable breach of the LEDR/PL protocol: a gate fired twice in a
    wave, changed both rails at once, latched the wrong phase, presented a
    stale D input to a register, or an early-fired master's value was
    contradicted by its late inputs.  None of these can happen for netlists
    built by [Pl.of_netlist] / [Pl.with_ee] without fault hooks. *)

(** {1 Deadlock forensics} *)

type stall = {
  stall_wave : int;  (** Wave index (0-based) at which the wave stalled. *)
  unfired : int list;  (** Combinational gates that never fired. *)
  waiting_on : (int * int list) list;
      (** Each unfired gate with its producers ({!Pl.producers}: distinct
          fanins, then the trigger) still carrying the previous wave's
          phase. *)
  roots : int list;
      (** Unfired gates none of whose stale inputs is itself unfired — the
          gates a fault stopped directly, as opposed to downstream
          victims. *)
  stale_sources : int list;
      (** Gates that did fire but whose output pair never showed the new
          phase: the sites where a stuck rail ate the transition. *)
  blamed_cycle : int list;
      (** A token-free directed cycle of the PL marked graph under the
          stalled marking — the structural reason the wave can never
          complete.  Empty when the stall is not (yet) a marked-graph
          deadlock. *)
}

exception Stalled of stall
(** The firing fixpoint went quiescent with combinational gates unfired: a
    deadlock.  Impossible without fault hooks (the marked graph is live). *)

val stall_to_string : stall -> string

val apply : t -> bool array -> bool array * int
(** [apply t vector] runs one wave with the inputs in source order and
    returns the sink values (sink order) and the number of masters that
    fired early (before all their inputs carried the new phase).
    Raises {!Protocol_violation} or {!Stalled} as described above. *)

val run_check : Pl.t -> Ee_netlist.Netlist.t -> vectors:int -> seed:int -> bool
(** Cross-check rail-level simulation against the synchronous golden model
    on random vectors. *)
