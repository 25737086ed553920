(* Workload [serve_mixed]: the ee_synthd daemon in its own process, driven
   by this process in a closed loop over one connection (it sends its next
   request only when the previous reply has arrived).  A pass is a fixed
   script drawn from the seed:

   - mostly warm requests: [synth] cache hits on a small key set that
     set-up filled (by bench, with [search], as inline [blif], and
     [import]s in BLIF and base64 binary AIGER);
   - a steady share of cold requests with fresh seeds, so they miss the
     cache: [synth] by bench, [synth] with inline [blif] (the
     [Export.Blif] reader) and [import] in BLIF and binary AIGER
     ([Blif_in] and [Aiger]), each repeated later on the same connection
     as a warm hit.

   Reads (hits) come between writes (cold computes that fill the cache),
   and it is the only workload that reaches [lib/serve] and [lib/cache].

   One connection, with this process and the daemon on one CPU (see
   eebench/run.py): with two, a request's latency depended on what the
   other connection was doing at that instant, and per-request times
   moved by a quarter between runs. *)

module Json = Ee_export.Json
module Prng = Ee_util.Prng
module Itc99 = Ee_bench_circuits.Itc99

(* A pass is [segments] segments.  A segment is a cold request, then every
   warm key once in an order drawn from the seed, with the cold request
   repeated as the fourth warm request.  With the 13 warm keys a pass is
   8 x 15 = 120 requests, 8 cold. *)
let segments = 8

let reply_timeout_s = 60.

type kind = Warm | Cold

type req = { line : string; kind : kind }

(* Circuit texts, made once per process: a pass only sends them. *)
let texts : (string, string) Hashtbl.t = Hashtbl.create 8

let text fmt id =
  let key = fmt ^ id in
  match Hashtbl.find_opt texts key with
  | Some t -> t
  | None ->
      let nl = Ee_rtl.Techmap.run_rtl ((Itc99.find id).Itc99.build ()) in
      let t =
        if fmt = "aig" then Ee_util.Base64.encode (Ee_frontend.Aiger.to_binary nl)
        else Ee_export.Blif.to_blif nl
      in
      Hashtbl.replace texts key t;
      t

let line fields = Json.to_string (Json.Obj fields)

let synth_bench ?(search = false) id seed =
  line
    ([ ("cmd", Json.String "synth"); ("bench", Json.String id) ]
    @ (if search then [ ("search", Json.Bool true) ] else [])
    @ [ ("seed", Json.Int seed) ])

let synth_blif id seed =
  line
    [
      ("cmd", Json.String "synth");
      ("blif", Json.String (text "blif" id));
      ("seed", Json.Int seed);
    ]

let import_blif id seed =
  line
    [
      ("cmd", Json.String "import");
      ("text", Json.String (text "blif" id));
      ("format", Json.String "blif");
      ("seed", Json.Int seed);
    ]

let import_aig id seed =
  line
    [
      ("cmd", Json.String "import");
      ("text", Json.String (text "aig" id));
      ("encoding", Json.String "base64");
      ("format", Json.String "aig");
      ("seed", Json.Int seed);
    ]

let warm_seed = Reference.base_seed

(* The warm key set; set-up computes each once, so every pass finds it
   cached.  The [search] keys carry the steady-state periods. *)
let warm_keys () =
  List.map
    (fun id -> synth_bench id warm_seed)
    [ "b01"; "b02"; "b03"; "b06"; "b08"; "b09"; "b10"; "b13" ]
  @ List.map (fun id -> synth_bench ~search:true id warm_seed) [ "b01"; "b06" ]
  @ [ synth_blif "b02" warm_seed; import_blif "b01" warm_seed; import_aig "b06" warm_seed ]

(* The cold requests of a segment, in a fixed rotation so that every
   seed's passes cost the same. *)
let cold_rotation =
  [| (synth_bench ~search:false, "b01"); (synth_blif, "b06"); (import_blif, "b02"); (import_aig, "b01") |]

(* Pass [pass] of a run.  Every pass sends the same warm requests in the
   same order, and every seed sends each warm key as often, so the mix
   costs the same at every seed.  Cold requests carry seeds no other
   request of the run uses, so they miss the cache. *)
let script ~seed ~warm pass =
  let rng = Prng.create (seed * 100_003) in
  let order () =
    let a = Array.of_list warm in
    Prng.shuffle rng a;
    List.map (fun line -> { line; kind = Warm }) (Array.to_list a)
  in
  List.concat
    (List.init segments (fun j ->
         let make, id = cold_rotation.(j mod Array.length cold_rotation) in
         let line = make id ((seed * 1_000_000) + (pass * segments) + j) in
         let segment = order () in
         ({ line; kind = Cold } :: List.filteri (fun i _ -> i < 3) segment)
         @ ({ line; kind = Warm } :: List.filteri (fun i _ -> i >= 3) segment)))

let fingerprint ~seed =
  let warm = warm_keys () in
  Reference.digest_strings
    (warm
    @ List.concat_map
        (fun pass -> List.map (fun r -> r.line) (script ~seed ~warm pass))
        [ 0; 1 ])

(* -- the connection ----------------------------------------------------- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some { fd; buf = Buffer.create 65536; chunk = Bytes.create 65536 }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let send c s =
  let s = s ^ "\n" in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* A complete reply line already buffered, if any. *)
let take_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)

let fill c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "ee_synthd closed the connection";
  Buffer.add_subbytes c.buf c.chunk 0 n

let rec recv c ~deadline =
  match take_line c with
  | Some l -> l
  | None ->
      let left = deadline -. Measure.now () in
      if left <= 0. then failwith "no reply from ee_synthd";
      (match Unix.select [ c.fd ] [] [] left with
      | [], _, _ -> ()
      | _ -> fill c);
      recv c ~deadline

let request c l =
  send c l;
  recv c ~deadline:(Measure.now () +. reply_timeout_s)

(* -- replies -------------------------------------------------------------- *)

type reply = { ok : bool; cached : bool; elapsed_ms : float; result : string; json : Json.t }

let parse_reply l =
  match Json.parse l with
  | Error _ -> { ok = false; cached = false; elapsed_ms = 0.; result = ""; json = Json.Null }
  | Ok j ->
      let str k = Option.bind (Json.member k j) Json.to_string_opt in
      {
        ok = str "status" = Some "ok";
        cached = Option.bind (Json.member "cached" j) Json.to_bool = Some true;
        elapsed_ms =
          Option.value ~default:0. (Option.bind (Json.member "elapsed_ms" j) Json.to_float);
        result = (match Json.member "result" j with Some r -> Json.to_string r | None -> "");
        json = j;
      }

let field path j =
  Option.bind
    (List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path)
    Json.to_float

(* -- the daemon ----------------------------------------------------------- *)

type daemon = { pid : int; path : string; control : conn }

let run_dir = "eebench/.run"

let start_daemon ~exe ~tag =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let path = Printf.sprintf "%s/d%d-%d.sock" run_dir (Unix.getpid ()) tag in
  if Sys.file_exists path then Sys.remove path;
  let pid =
    Unix.create_process exe
      [| exe; "--socket"; path; "--jobs"; "1"; "--shards"; "1"; "--quiet" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let deadline = Measure.now () +. 30. in
  let rec wait () =
    match connect path with
    | Some c -> c
    | None ->
        if Measure.now () > deadline then failwith "ee_synthd did not start";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "ee_synthd exited at start-up");
        Unix.sleepf 0.005;
        wait ()
  in
  { pid; path; control = wait () }

let stop_daemon d =
  (try ignore (request d.control (line [ ("cmd", Json.String "shutdown") ])) with _ -> ());
  (try Unix.close d.control.fd with _ -> ());
  let deadline = Measure.now () +. 20. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Measure.now () < deadline ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  (try reap () with Unix.Unix_error _ -> ());
  if Sys.file_exists d.path then Sys.remove d.path

(* -- a pass ----------------------------------------------------------------- *)

let check_reply ~results (r : req) (rep : reply) =
  let key_result = Hashtbl.find_opt results r.line in
  match r.kind with
  | Cold ->
      Measure.attempt (rep.ok && not rep.cached) "serve_mixed: cold request not computed fresh";
      if rep.ok then Hashtbl.replace results r.line rep.result
  | Warm ->
      Measure.attempt
        (rep.ok && rep.cached && key_result = Some rep.result)
        "serve_mixed: warm reply missing, uncached or different from its cold reply"

(* One request of a pass: its round-trip time and the server-side time
   its reply reports. *)
type timed = { req : req; latency_ms : float; elapsed_ms : float }

(* The pass's requests in order, each sent when the previous reply has
   arrived.  An unanswered request counts as failed, and ends the pass. *)
let run_pass ~conn ~results script =
  let rec go acc = function
    | [] -> List.rev acc
    | r :: rest -> (
        let t0 = Measure.now () in
        match request conn r.line with
        | l ->
            let latency_ms = (Measure.now () -. t0) *. 1000. in
            let rep = parse_reply l in
            check_reply ~results r rep;
            go ({ req = r; latency_ms; elapsed_ms = rep.elapsed_ms } :: acc) rest
        | exception Failure e ->
            Measure.attempt false ("serve_mixed: request unanswered: " ^ e);
            List.rev acc)
  in
  go [] script

let daemons_started = ref 0

let prepare ~daemon:exe ~seed =
  let warm = warm_keys () in
  incr daemons_started;
  let d = start_daemon ~exe ~tag:!daemons_started in
  let conn = ref None in
  let stop () =
    Option.iter (fun c -> try Unix.close c.fd with _ -> ()) !conn;
    stop_daemon d
  in
  try
    (* Warm-up: compute every warm key once, keeping the cold replies. *)
    let results = Hashtbl.create 64 in
    let warm_results =
      List.map
        (fun l ->
          let rep = parse_reply (request d.control l) in
          if not rep.ok then
            failwith ("serve_mixed: warm-up request failed: " ^ String.sub l 0 (min 80 (String.length l)));
          Hashtbl.replace results l rep.result;
          rep)
        warm
    in
    conn := connect d.path;
    let c = match !conn with Some c -> c | None -> failwith "cannot connect to ee_synthd" in
    let cold_ms = ref [] and overhead_ms = ref [] in
    let pass_no = ref 0 in
    let quality () =
      let results = List.map (fun r -> r.json) warm_results in
      let synth_of j =
        match Option.bind (Json.member "result" j) (Json.member "synth") with
        | Some s -> s
        | None -> Option.value ~default:Json.Null (Json.member "result" j)
      in
      let values f = List.filter_map (fun j -> f (synth_of j)) results in
      {
        Workload.speedup_pct = Measure.mean (values (field [ "delay_decrease_percent" ]));
        area_pct = Measure.mean (values (field [ "area_increase_percent" ]));
        lambda_geomean = Measure.geomean (values (field [ "search"; "lambda_search" ]));
      }
    in
    let layers () =
      let st = (parse_reply (request d.control (line [ ("cmd", Json.String "stats") ]))).json in
      let get path = Option.value ~default:0. (field ("result" :: path) st) in
      [
        ("serve.synth_ms_p50", get [ "commands"; "synth"; "latency_ms"; "p50" ]);
        ("serve.import_ms_p50", get [ "commands"; "import"; "latency_ms"; "p50" ]);
        ("serve.overhead_ms_p50", Measure.median !overhead_ms);
        ("serve.cold_ms_p50", Measure.median !cold_ms);
        ( "serve.rejected",
          List.fold_left (fun acc t -> acc +. get [ "tiers"; t ]) 0. [ "throttled"; "shed"; "overloaded" ] );
        ("cache.hit_ratio", get [ "cache"; "hit_rate" ]);
      ]
    in
    {
      Workload.fingerprint = fingerprint ~seed;
      same_items = false;
      pass =
        (fun () ->
          let timed, pass_s, scale =
            Measure.scaled_wall (fun () -> run_pass ~conn:c ~results (script ~seed ~warm !pass_no))
          in
          incr pass_no;
          let scaled kind =
            List.filter_map (fun t -> if t.req.kind = kind then Some (t.latency_ms *. scale) else None) timed
          in
          cold_ms := scaled Cold @ !cold_ms;
          overhead_ms := List.map (fun t -> (t.latency_ms -. t.elapsed_ms) *. scale) timed @ !overhead_ms;
          let warm_ms = scaled Warm in
          {
            Workload.pass_s;
            items_ms = warm_ms;
            ranked = List.length warm_ms;
            work = float_of_int (List.length timed);
          });
      quality;
      layers;
      peak_rss_mb = (fun () -> Measure.peak_rss_mb ~pid:(string_of_int d.pid) ());
      stop;
    }
  with e ->
    stop ();
    raise e
