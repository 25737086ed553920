type t = { arity : int; words : int64 array }

let max_arity = 16

let size t = 1 lsl t.arity

let nwords arity = if arity <= 6 then 1 else 1 lsl (arity - 6)

(* Invariant: when arity < 6, only the low 2^arity bits of words.(0) may be
   set.  Every constructor masks accordingly so that structural equality on
   the words array is function equality. *)
let tail_mask arity =
  if arity >= 6 then Int64.minus_one
  else Int64.sub (Int64.shift_left 1L (1 lsl arity)) 1L

let check_arity n =
  if n < 0 || n > max_arity then invalid_arg "Truthtab: arity out of range"

let arity t = t.arity

let create n =
  check_arity n;
  { arity = n; words = Array.make (nwords n) 0L }

let const n b =
  check_arity n;
  let fill = if b then tail_mask n else 0L in
  { arity = n; words = Array.make (nwords n) fill }

let get_bit words m = Int64.logand (Int64.shift_right_logical words.(m lsr 6) (m land 63)) 1L

let set_bit words m =
  words.(m lsr 6) <- Int64.logor words.(m lsr 6) (Int64.shift_left 1L (m land 63))

let of_fun n f =
  check_arity n;
  let words = Array.make (nwords n) 0L in
  for m = 0 to (1 lsl n) - 1 do
    if f m then set_bit words m
  done;
  { arity = n; words }

let var n i =
  if i < 0 || i >= n then invalid_arg "Truthtab.var: index out of range";
  of_fun n (fun m -> (m lsr i) land 1 = 1)

let of_minterms n ms =
  check_arity n;
  let words = Array.make (nwords n) 0L in
  List.iter
    (fun m ->
      if m < 0 || m >= 1 lsl n then invalid_arg "Truthtab.of_minterms: bad minterm";
      set_bit words m)
    ms;
  { arity = n; words }

let eval t m =
  assert (m >= 0 && m < size t);
  Int64.equal (get_bit t.words m) 1L

let eval_vector t v =
  let m = ref 0 in
  for i = 0 to t.arity - 1 do
    if v.(i) then m := !m lor (1 lsl i)
  done;
  eval t !m

let of_string s =
  let len = String.length s in
  if len = 0 || len land (len - 1) <> 0 then
    invalid_arg "Truthtab.of_string: length must be a power of two";
  let n = Ee_util.Bits.log2_ceil len in
  check_arity n;
  of_fun n (fun m ->
      match s.[len - 1 - m] with
      | '1' -> true
      | '0' -> false
      | _ -> invalid_arg "Truthtab.of_string: expected only '0'/'1'")

let to_string t =
  String.init (size t) (fun i -> if eval t (size t - 1 - i) then '1' else '0')

let equal a b = a.arity = b.arity && Array.for_all2 Int64.equal a.words b.words

let compare a b =
  let c = Stdlib.compare a.arity b.arity in
  if c <> 0 then c else Stdlib.compare a.words b.words

let hash t = Hashtbl.hash (t.arity, t.words)

let map2 op a b =
  if a.arity <> b.arity then invalid_arg "Truthtab: arity mismatch";
  { arity = a.arity; words = Array.map2 op a.words b.words }

let lognot a =
  let m = tail_mask a.arity in
  { arity = a.arity; words = Array.map (fun w -> Int64.logand (Int64.lognot w) m) a.words }

let logand a b = map2 Int64.logand a b

let logor a b = map2 Int64.logor a b

let logxor a b = map2 Int64.logxor a b

let count_ones t = Array.fold_left (fun acc w -> acc + Ee_util.Bits.popcount64 w) 0 t.words

(* First minterm of [a ∧ ¬b], word-wise.  The tail-mask invariant keeps the
   unused high bits of [a] clear, so negating [b] cannot surface phantom
   minterms. *)
let first_diff a b =
  if a.arity <> b.arity then invalid_arg "Truthtab: arity mismatch";
  let n = Array.length a.words in
  let rec word i =
    if i = n then None
    else
      let w = Int64.logand a.words.(i) (Int64.lognot b.words.(i)) in
      if Int64.equal w 0L then word (i + 1)
      else begin
        let bit = ref 0 in
        while Int64.equal (Int64.logand (Int64.shift_right_logical w !bit) 1L) 0L do
          incr bit
        done;
        Some ((i lsl 6) lor !bit)
      end
  in
  word 0

let minterms t =
  let out = ref [] in
  for m = size t - 1 downto 0 do
    if eval t m then out := m :: !out
  done;
  !out

let is_const t =
  if equal t (const t.arity false) then Some false
  else if equal t (const t.arity true) then Some true
  else None

let restrict t ~var ~value =
  if var < 0 || var >= t.arity then invalid_arg "Truthtab.restrict: bad variable";
  of_fun t.arity (fun m ->
      let m' = if value then m lor (1 lsl var) else m land lnot (1 lsl var) in
      eval t m')

let depends_on t i =
  not (equal (restrict t ~var:i ~value:false) (restrict t ~var:i ~value:true))

let support t =
  let s = ref 0 in
  for i = 0 to t.arity - 1 do
    if depends_on t i then s := !s lor (1 lsl i)
  done;
  !s

let constant_under t ~subset ~assignment =
  (* Scan the sub-space selected by [subset]/[assignment] and report whether
     the function is constant over it. *)
  let first = ref None in
  let constant = ref true in
  let n = size t in
  (try
     for m = 0 to n - 1 do
       if m land subset = assignment land subset then begin
         let v = eval t m in
         match !first with
         | None -> first := Some v
         | Some v0 -> if v <> v0 then begin constant := false; raise Exit end
       end
     done
   with Exit -> ());
  match (!constant, !first) with true, Some v -> Some v | _ -> None

let cofactor_pair t ~var =
  (restrict t ~var ~value:false, restrict t ~var ~value:true)

(* Bits whose minterm index has bit [v] clear, for the in-word variables. *)
let low_half =
  [|
    0x5555555555555555L;
    0x3333333333333333L;
    0x0F0F0F0F0F0F0F0FL;
    0x00FF00FF00FF00FFL;
    0x0000FFFF0000FFFFL;
    0x00000000FFFFFFFFL;
  |]

(* Quantify one variable word-parallel: combine each minterm with its
   partner across [var] by [op] and write the result to both.  Below
   variable 6 the partners share a word, [2^var] bits apart; from 6 up they
   sit in words [2^(var-6)] apart.  The tail-mask invariant holds: at arity
   < 6 the shifts never carry set bits past [2^arity]. *)
let quantify op t ~var =
  if var < 0 || var >= t.arity then invalid_arg "Truthtab: bad variable";
  let words = Array.copy t.words in
  if var < 6 then begin
    let s = 1 lsl var in
    Array.iteri
      (fun i w ->
        let r = Int64.logand (op w (Int64.shift_right_logical w s)) low_half.(var) in
        words.(i) <- Int64.logor r (Int64.shift_left r s))
      t.words
  end
  else begin
    let stride = 1 lsl (var - 6) in
    Array.iteri
      (fun i w ->
        if i land stride = 0 then begin
          let r = op w t.words.(i + stride) in
          words.(i) <- r;
          words.(i + stride) <- r
        end)
      t.words
  end;
  { t with words }

let exists t ~var = quantify Int64.logor t ~var

let forall t ~var = quantify Int64.logand t ~var

let permute t p =
  if Array.length p <> t.arity then invalid_arg "Truthtab.permute: bad permutation";
  let seen = Array.make t.arity false in
  Array.iter
    (fun j ->
      if j < 0 || j >= t.arity || seen.(j) then
        invalid_arg "Truthtab.permute: not a permutation";
      seen.(j) <- true)
    p;
  of_fun t.arity (fun m ->
      (* Build the source minterm whose image under p is m. *)
      let src = ref 0 in
      for i = 0 to t.arity - 1 do
        if (m lsr p.(i)) land 1 = 1 then src := !src lor (1 lsl i)
      done;
      eval t !src)

let random rng n =
  check_arity n;
  of_fun n (fun _ -> Ee_util.Prng.bool rng)

let pp fmt t = Format.fprintf fmt "tt%d:%s" t.arity (to_string t)
