(* Recorded references: input fingerprints and expected outputs.

   A run's inputs are drawn from one of [variants] recorded input sets:
   [--seed] picks the set, so every seed's inputs and outputs can be checked
   against a recording made once with [eebench.exe --record].  Seed 2002,
   the paper protocol's seed in EXPERIMENTS.md, maps to itself. *)

module Json = Ee_export.Json

let variants = 16

let base_seed = 2002

let variant_seed seed = base_seed + ((((seed - base_seed) mod variants) + variants) mod variants)

let all_variant_seeds = List.init variants (fun k -> base_seed + k)

let digest_strings parts = Digest.to_hex (Digest.string (String.concat "\000" parts))

(* The first bytes [Prng] draws for a seed: a change to the generator shows
   in every fingerprint that includes it. *)
let prng_stream seed =
  let rng = Ee_util.Prng.create seed in
  String.init 4096 (fun _ -> Char.chr (Ee_util.Prng.bits rng 8))

let load path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.parse text with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)

let save path j =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

(* The member at a path of keys, e.g. [find r ["table3"; "2002"; "b01"]]. *)
let find j path =
  List.fold_left
    (fun acc key -> Option.bind acc (Json.member key))
    (Some j) path

let fingerprint j ~workload ~seed =
  Option.bind (find j [ "fingerprints"; workload; string_of_int seed ]) Json.to_string_opt

let floats_equal a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs a)

(* A recorded row: a list of numbers, compared with [floats_equal]. *)
let row_matches (expected : Json.t) (actual : float list) =
  match Json.to_list expected with
  | None -> false
  | Some cells ->
      List.length cells = List.length actual
      && List.for_all2
           (fun c a -> match Json.to_float c with Some e -> floats_equal e a | None -> false)
           cells actual

let row_json (values : float list) = Json.List (List.map (fun v -> Json.Float v) values)
