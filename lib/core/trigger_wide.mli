(** Trigger search generalized beyond LUT4.

    The paper notes (§3) that the exhaustive subset search is practical
    {e because} the cell is a LUT4: 14 candidate supports, each checked in
    constant time.  For a k-input cell there are [2^k - 2] candidate
    supports, and scanning [2^k] minterms for each costs roughly [4^k].
    {!candidates} avoids the scans: it walks the support subsets
    largest-first and gets each subset's maximal trigger from a parent's
    by one universal quantification, pruning on the coverage bound the
    parents give.  {!trigger_function} is the per-subset definition it is
    tested against. *)

type candidate = {
  subset : int;  (** Variable bitmask. *)
  coverage_count : int;  (** Covered minterms, of [2^arity]. *)
  coverage : float;  (** Percent. *)
  func : Ee_logic.Truthtab.t;  (** Trigger function, same arity as master. *)
}

val trigger_function : Ee_logic.Truthtab.t -> subset:int -> Ee_logic.Truthtab.t
(** The maximal trigger over [subset], by definition: 1 on a minterm iff
    the master is constant once the [subset] variables take that
    minterm's values.  Scans the minterms. *)

val candidates :
  ?min_coverage:float -> ?top_k:int -> Ee_logic.Truthtab.t -> candidate list
(** Non-empty strict subsets of the support with positive coverage, subset
    ascending, each with its maximal trigger.  With neither knob, the full
    list; [min_coverage] (percent, default 0) and [top_k] select by the
    {!prune} rule.

    The walk goes from the full support down, one subset size at a time.
    A subset's pair [(∀_{V∖S} f, ∀_{V∖S} ¬f)] is its parent's with one
    more variable quantified, and its maximal trigger is the pair's OR.
    Coverage is monotone in the support, so the minimum coverage among a
    subset's parents bounds its own: the subset is skipped, without
    computing its pair, when that bound is zero, below [min_coverage], or
    strictly below the [k]-th best coverage kept so far.  Ties are never
    skipped — the ranking rule breaks them toward the smaller subset,
    which may come later in the walk — so the result is exactly
    {!prune} applied to the full list. *)

val best : key:('a -> int * int) -> int -> 'a list -> 'a list
(** The ranking rule: [best ~key k xs] is the first [k] of [xs] ordered by
    coverage descending, then subset ascending, where
    [key x = (coverage_count, subset)].  Best first. *)

val prune : ?min_coverage:float -> ?top_k:int -> candidate list -> candidate list
(** The selection rule: drop zero-coverage and sub-[min_coverage]
    candidates, keep the {!best} [top_k], and return in subset order.
    Raises [Invalid_argument] on a negative [top_k]. *)

val reference :
  ?min_coverage:float -> ?top_k:int -> Ee_logic.Truthtab.t -> candidate list
(** {!trigger_function} on every non-empty strict subset of the support,
    through {!prune}: the brute-force definition of {!candidates}, about
    [4^k] per master.  Tests and the [--search] bench check {!candidates}
    against it. *)

val agrees_with_lut4 : Ee_logic.Lut4.t -> bool
(** Cross-check: at arity 4 this module computes exactly what
    {!Trigger.candidates} computes. *)
