module Tt = Ee_logic.Truthtab

type point = {
  pt_subset : int;
  pt_cubes : int;
  pt_coverage_count : int;
  pt_coverage : float;
  pt_exact : bool;
}

let dominates a b =
  a.pt_cubes <= b.pt_cubes
  && a.pt_coverage_count >= b.pt_coverage_count
  && (a.pt_cubes < b.pt_cubes || a.pt_coverage_count > b.pt_coverage_count)

let non_dominated pts =
  List.filter (fun p -> not (List.exists (fun q -> dominates q p) pts)) pts

let front ?(max_cubes = 8) tt =
  if max_cubes < 1 then invalid_arg "Pareto.front: max_cubes must be >= 1";
  let ctx = Cegis.ctx tt in
  let size = float_of_int (1 lsl Tt.arity tt) in
  let pts = ref [] in
  let add (r : Cegis.result) =
    let p =
      {
        pt_subset = r.Cegis.subset;
        pt_cubes = List.length r.Cegis.cubes;
        pt_coverage_count = r.Cegis.coverage_count;
        pt_coverage = 100. *. float_of_int r.Cegis.coverage_count /. size;
        pt_exact = r.Cegis.exact;
      }
    in
    (* Keep one witness per (area, coverage) cell: the first subset found
       (candidates come subset ascending, so the witness is canonical). *)
    if
      not
        (List.exists
           (fun q ->
             q.pt_cubes = p.pt_cubes && q.pt_coverage_count = p.pt_coverage_count)
           !pts)
    then pts := p :: !pts
  in
  List.iter
    (fun cand ->
      let exact = Cegis.synthesize ctx cand in
      let full = List.length exact.Cegis.cubes in
      for b = 1 to min full max_cubes do
        if b = full then add exact else add (Cegis.synthesize ~max_cubes:b ctx cand)
      done)
    (Ee_core.Trigger_wide.candidates tt);
  non_dominated !pts
  |> List.sort (fun a b ->
         match compare a.pt_cubes b.pt_cubes with
         | 0 -> compare a.pt_subset b.pt_subset
         | x -> x)
