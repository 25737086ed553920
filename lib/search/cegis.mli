(** Cube-level realization of one maximal trigger.

    {!Ee_core.Trigger_wide.candidates} computes each support subset's
    maximal trigger as a truth table.  This module turns one into a sum of
    cubes, the way the paper's Table 2 reads triggers off the master: the
    maximal trigger over a support [S] is the union of the S-supported
    prime implicants of the master [f] and its complement — a cube whose
    care set fits inside [S] decides [f] for every completion of the other
    inputs.

    The loop is counterexample-guided:

    + {b seed} the cube pool with the S-supported cubes of the
      {!Ee_logic.Isop} covers of [f] and [¬f] (computed once per master,
      shared across its subsets);
    + {b verify} the pool's union against the candidate's trigger table;
    + on a mismatch, {b extract} the first uncovered minterm
      ({!Ee_logic.Truthtab.first_diff} — sound because the pool is always
      a union of trigger implicants), {b expand} it to a prime-within-S
      cube (greedy literal dropping, the [Qm]-style expansion step) and
      add it to the pool.

    The loop is needed for completeness: ISOP covers are irredundant, not
    prime-complete, so an implicant with [care ⊆ S] can be absent from
    both seeds.  Everything is deterministic, so results are reproducible
    and cacheable. *)

type ctx
(** Per-master shared state: [f], [¬f] and the lazily built ISOP seed
    cubes.  Build once per master function, reuse for every subset. *)

val ctx : Ee_logic.Truthtab.t -> ctx

type result = {
  subset : int;
  cubes : Ee_logic.Cube.t list;  (** Sorted; care sets within [subset]. *)
  func : Ee_logic.Truthtab.t;  (** Full master arity. *)
  coverage_count : int;  (** Of [2^arity]. *)
  exact : bool;
      (** True when [func] {e is} the maximal trigger; false only when a
          cube budget forced a strict under-approximation. *)
}

val synthesize :
  ?max_cubes:int -> ctx -> Ee_core.Trigger_wide.candidate -> result
(** Cover the candidate's maximal trigger exactly, then — if [max_cubes]
    is given and the (subsumption-pruned) cube pool is larger — keep the
    greedy best-coverage subset of that many cubes.  The budgeted result
    is still sound (every cube implies the trigger), just possibly
    partial.  The candidate must come from
    {!Ee_core.Trigger_wide.candidates} (or {!Ee_core.Trigger_wide.reference})
    of the context's master.  Raises [Invalid_argument] on an empty or
    out-of-range subset or a candidate of another arity. *)
