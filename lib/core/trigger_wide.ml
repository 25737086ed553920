module Bits = Ee_util.Bits
module Tt = Ee_logic.Truthtab

type candidate = {
  subset : int;
  coverage_count : int;
  coverage : float;
  func : Tt.t;
}

let trigger_function tt ~subset =
  Tt.of_fun (Tt.arity tt) (fun m -> Tt.constant_under tt ~subset ~assignment:m <> None)

(* The ranking rule: best coverage first, ties toward the numerically
   smallest subset. *)
let best ~key k xs =
  List.stable_sort
    (fun a b ->
      let ca, sa = key a and cb, sb = key b in
      match compare cb ca with 0 -> compare sa sb | x -> x)
    xs
  |> List.filteri (fun i _ -> i < k)

let prune ?(min_coverage = 0.) ?top_k cands =
  let kept =
    List.filter (fun c -> c.coverage_count > 0 && c.coverage >= min_coverage) cands
  in
  let kept =
    match top_k with
    | None -> kept
    | Some k ->
        if k < 0 then invalid_arg "Trigger_wide.prune: top_k must be >= 0";
        best ~key:(fun c -> (c.coverage_count, c.subset)) k kept
  in
  List.sort (fun a b -> compare a.subset b.subset) kept

let candidates ?(min_coverage = 0.) ?top_k tt =
  let support = Tt.support tt in
  let size = float_of_int (1 lsl Tt.arity tt) in
  let percent n = 100. *. float_of_int n /. size in
  (* Per visited subset S: a sound upper bound on its coverage, and — when
     S was computed rather than skipped — the pair
     (∀_{V∖S} f, ∀_{V∖S} ¬f).  The full support seeds the lattice: f does
     not depend on the other variables, so its pair is (f, ¬f). *)
  let bound : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let pairs : (int, Tt.t * Tt.t) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace bound support (1 lsl Tt.arity tt);
  Hashtbl.replace pairs support (tt, Tt.lognot tt);
  (* Coverage is monotone in the support (S ⊆ S' ⟹ cov S <= cov S'), so a
     subset's coverage is bounded by the minimum over its parents. *)
  let parent_bound subset =
    Bits.fold_bits
      (support land lnot subset)
      (fun acc v -> min acc (Hashtbl.find bound (subset lor (1 lsl v))))
      max_int
  in
  (* The k best coverages kept so far, descending.  A subset strictly below
     the k-th of a full ring cannot enter it; ties are never skipped, since
     the ranking rule breaks them toward the smaller subset, which may come
     later in the size-descending walk. *)
  let ring = ref [] in
  let kth_best () =
    match top_k with
    | Some k when k > 0 && List.length !ring = k -> List.nth !ring (k - 1)
    | _ -> 0
  in
  let skip n = n = 0 || percent n < min_coverage || n < kth_best () in
  let kept = ref [] in
  (* Largest subsets first, so every subset sees all of its parents. *)
  let positions = Array.of_list (Bits.indices support) in
  let nsup = Array.length positions in
  for size_j = nsup - 1 downto 1 do
    List.iter
      (fun compact ->
        let subset =
          Bits.fold_bits compact (fun acc j -> acc lor (1 lsl positions.(j))) 0
        in
        let ub = parent_bound subset in
        if skip ub then Hashtbl.replace bound subset ub
        else begin
          (* A skipped parent would have bounded this subset below the same
             cut (the floor is fixed, the k-th best only rises), so every
             parent holds its pair: quantify one more variable out of any. *)
          let v = Bits.fold_bits (support land lnot subset) (fun _ v -> v) 0 in
          let a, b = Hashtbl.find pairs (subset lor (1 lsl v)) in
          let a = Tt.forall a ~var:v and b = Tt.forall b ~var:v in
          let func = Tt.logor a b in
          let n = Tt.count_ones func in
          Hashtbl.replace bound subset n;
          Hashtbl.replace pairs subset (a, b);
          if not (skip n) then begin
            kept := { subset; coverage_count = n; coverage = percent n; func } :: !kept;
            Option.iter
              (fun k ->
                ring :=
                  List.filteri (fun i _ -> i < k) (List.merge (fun x y -> compare y x) [ n ] !ring))
              top_k
          end
        end)
      (Bits.subsets_of_size nsup size_j)
  done;
  prune ~min_coverage ?top_k !kept

let reference ?min_coverage ?top_k tt =
  let size = float_of_int (1 lsl Tt.arity tt) in
  List.map
    (fun subset ->
      let func = trigger_function tt ~subset in
      let n = Tt.count_ones func in
      { subset; coverage_count = n; coverage = 100. *. float_of_int n /. size; func })
    (Bits.all_nonempty_proper_subsets (Tt.support tt))
  |> prune ?min_coverage ?top_k

let agrees_with_lut4 f =
  let tt = Ee_logic.Lut4.to_truthtab f in
  let wide = candidates tt in
  let narrow = Trigger.candidates f in
  List.length wide = List.length narrow
  && List.for_all2
       (fun (w : candidate) (n : Trigger.candidate) ->
         w.subset = n.Trigger.subset
         && w.coverage_count = n.Trigger.coverage_count
         && Tt.equal w.func (Ee_logic.Lut4.to_truthtab n.Trigger.func))
       wide narrow
