module Bits = Ee_util.Bits
module Tt = Ee_logic.Truthtab
module Cube = Ee_logic.Cube
module Isop = Ee_logic.Isop
module Trigger_wide = Ee_core.Trigger_wide

type ctx = {
  tt : Tt.t;
  ntt : Tt.t;
  arity : int;
  seeds : Cube.t list Lazy.t;  (* ISOP covers of f and of ¬f, deduplicated *)
}

let ctx tt =
  (* Lazy: the ISOP pair is the costliest part of the context, and a caller
     may build one without ever synthesizing. *)
  let seeds =
    lazy (List.sort_uniq Cube.compare (Isop.cover tt @ Isop.cover (Tt.lognot tt)))
  in
  { tt; ntt = Tt.lognot tt; arity = Tt.arity tt; seeds }

let check_subset ctx ~subset =
  if subset <= 0 || subset land lnot (Bits.mask ctx.arity) <> 0 then
    invalid_arg "Cegis: subset must be a non-empty mask of master variables"

(* cube ⟹ target, checked on the truth table: every completion of the
   cube's don't-cares evaluates to 1.  Submask enumeration is pure integer
   arithmetic and early-exits on the first 0 — far cheaper than a BDD
   implication apply at truth-table arities. *)
let cube_implies ctx ~care ~value target_tt =
  let dc = Bits.mask ctx.arity land lnot care in
  let rec go d =
    Tt.eval target_tt (value lor d) && (d = 0 || go ((d - 1) land dc))
  in
  go dc

(* Expand the counterexample minterm [a] to a prime-within-[subset] cube of
   the target ([f] or [¬f] as a truth table): start from the fully
   specified S-cube and drop literals in ascending variable order while the
   cube stays an implicant.  Ascending order makes the result
   deterministic; the result is exactly one of the cubes Table 2 would
   read off the Qm prime list of the target restricted to S-supported
   primes. *)
let expand ctx ~subset ~target_tt a =
  let care = ref subset and value = ref (a land subset) in
  Bits.iter_bits subset (fun v ->
      let care' = !care land lnot (1 lsl v) in
      let value' = !value land care' in
      if cube_implies ctx ~care:care' ~value:value' target_tt then begin
        care := care';
        value := value'
      end);
  Cube.make ~care:!care ~value:!value

type result = {
  subset : int;
  cubes : Cube.t list;
  func : Tt.t;
  coverage_count : int;
  exact : bool;
}

(* Compact view of the subset assignment space: position j of the compact
   index is subset variable [positions.(j)]. *)
let scatter positions mc =
  let full = ref 0 in
  Array.iteri
    (fun j p -> if (mc lsr j) land 1 = 1 then full := !full lor (1 lsl p))
    positions;
  !full

(* Greedy best-coverage cube subset of size <= budget, over the compact
   assignment space.  Deterministic: ties go to the earliest cube in the
   (sorted) pool. *)
let select_budget ~positions ~budget cubes =
  let j = Array.length positions in
  let tables =
    List.map
      (fun c -> (c, Tt.of_fun j (fun mc -> Cube.contains_minterm c (scatter positions mc))))
      cubes
  in
  let rec go acc covered remaining budget =
    if budget = 0 then List.rev acc
    else
      let best =
        List.fold_left
          (fun best (c, tbl) ->
            let gain = Tt.count_ones (Tt.logor covered tbl) - Tt.count_ones covered in
            match best with
            | Some (_, _, g) when g >= gain -> best
            | _ when gain = 0 -> best
            | _ -> Some (c, tbl, gain))
          None remaining
      in
      match best with
      | None -> List.rev acc
      | Some (c, tbl, _) ->
          go (c :: acc)
            (Tt.logor covered tbl)
            (List.filter (fun (c', _) -> not (Cube.equal c c')) remaining)
            (budget - 1)
  in
  go [] (Tt.const j false) tables budget

let synthesize ?max_cubes ctx (cand : Trigger_wide.candidate) =
  let subset = cand.Trigger_wide.subset in
  check_subset ctx ~subset;
  (* The candidate carries the spec, the maximal trigger over [subset]; every
     refinement round below is one or two machine words of table
     arithmetic against it. *)
  let spec = cand.Trigger_wide.func in
  if Tt.arity spec <> ctx.arity then
    invalid_arg "Cegis: candidate arity differs from the master's";
  let cube_tt c = Tt.of_fun ctx.arity (fun m -> Cube.contains_minterm c m) in
  (* Seed the pool with the S-supported ISOP cubes of f and ¬f — every one
     implies the spec.  The loop then closes the gap: ISOP covers are
     irredundant but not prime-complete, so implicants whose care set fits
     inside S can be missing entirely. *)
  let pool =
    ref (List.filter (fun c -> Cube.supported_on c ~subset) (Lazy.force ctx.seeds))
  in
  let union cubes =
    List.fold_left (fun acc c -> Tt.logor acc (cube_tt c)) (Tt.create ctx.arity) cubes
  in
  let g = ref (union !pool) in
  while not (Tt.equal !g spec) do
    (* g is always a union of spec implicants, so spec \ g is the exact
       counterexample set. *)
    let cex =
      match Tt.first_diff spec !g with Some a -> a | None -> assert false
    in
    (* [cex] satisfies the spec, so the master is constant over the
       completions of its S-assignment — one completion's value tells us
       which constant, no implication check needed. *)
    let target_tt = if Tt.eval ctx.tt (cex land subset) then ctx.tt else ctx.ntt in
    let c = expand ctx ~subset ~target_tt cex in
    pool := c :: !pool;
    g := Tt.logor !g (cube_tt c)
  done;
  (* Canonicalize the complete pool: drop strictly subsumed cubes, sort. *)
  let uniq = List.sort_uniq Cube.compare !pool in
  let maximal =
    List.filter
      (fun c ->
        not (List.exists (fun c' -> (not (Cube.equal c c')) && Cube.subsumes c' c) uniq))
      uniq
  in
  let positions = Array.of_list (Bits.indices subset) in
  let cubes, func, exact =
    match max_cubes with
    | Some b when List.length maximal > b ->
        let sel = select_budget ~positions ~budget:b maximal in
        let gt = union sel in
        (List.sort Cube.compare sel, gt, Tt.equal gt spec)
    | _ ->
        (* The loop ends with the pool's union equal to [spec], so the spec
           table is the trigger function. *)
        (maximal, spec, true)
  in
  {
    subset;
    cubes;
    func;
    coverage_count = Tt.count_ones func;
    exact;
  }
