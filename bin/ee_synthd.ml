(* The ee_synthd daemon: a concurrent synthesis service over a Unix or TCP
   socket.  See lib/serve for the protocol and serving model.

   ee_synthd --socket /tmp/ee.sock --jobs 4 --shards 2 --deadline 30
   ee_synthd --tcp 127.0.0.1:7421 --cache-mb 128 --tier /var/tmp/ee-tier *)

open Cmdliner
module Server = Ee_serve.Server

let address_of ~socket ~tcp =
  match tcp with
  | None -> Ok (`Unix socket)
  | Some spec -> (
      match String.rindex_opt spec ':' with
      | None -> Error (`Msg "expected HOST:PORT for --tcp")
      | Some i -> (
          let host = String.sub spec 0 i in
          let port = String.sub spec (i + 1) (String.length spec - i - 1) in
          match int_of_string_opt port with
          | Some p when p > 0 && p < 65536 -> Ok (`Tcp (host, p))
          | _ -> Error (`Msg (Printf.sprintf "bad port %S in --tcp" port))))

let run socket tcp jobs shards queue deadline cache_mb tier quiet =
  match address_of ~socket ~tcp with
  | Error (`Msg m) ->
      prerr_endline ("ee_synthd: " ^ m);
      exit 2
  | Ok address ->
      let d = Server.default_config in
      let log = if quiet then ignore else fun m -> prerr_endline ("ee_synthd: " ^ m) in
      let domains = match jobs with Some j -> max 1 j | None -> d.Server.domains in
      let cfg =
        {
          d with
          Server.address;
          shards = (match shards with Some s -> max 1 s | None -> d.Server.shards);
          domains;
          max_pending = (match queue with Some q -> max 1 q | None -> 4 * domains);
          default_deadline_s = deadline;
          cache_max_bytes = cache_mb * 1024 * 1024;
          cache_dir = tier;
          log;
        }
      in
      let stop = Atomic.make false in
      let request_stop _ = Atomic.set stop true in
      ignore (Sys.signal Sys.sigint (Sys.Signal_handle request_stop));
      ignore (Sys.signal Sys.sigterm (Sys.Signal_handle request_stop));
      Server.serve ~stop cfg

let socket_t =
  Arg.(
    value
    & opt string "ee_synthd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to listen on.")

let tcp_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Listen on TCP instead of a Unix socket.")

let jobs_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains (default: the machine's recommended count).")

let shards_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"N"
        ~doc:"IO shard domains: independent select loops the acceptor deals connections to (default 1).")

let queue_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "queue" ] ~docv:"N"
        ~doc:"Admission bound: requests in flight before rejecting with 'overloaded' (default 4x jobs).")

let deadline_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"S"
        ~doc:"Default per-request deadline in seconds (requests may override with deadline_s).")

let cache_mb_t =
  Arg.(value & opt int 64 & info [ "cache-mb" ] ~docv:"MB" ~doc:"In-memory result cache budget.")

let tier_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "tier" ] ~docv:"DIR"
        ~doc:
          "Shared cross-instance cache tier: results are persisted here and existing \
           entries are preloaded at startup.  Safe to share between two daemons on one \
           host.")

let quiet_t = Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the startup/shutdown log lines.")

let main =
  let doc = "concurrent early-evaluation synthesis service with a content-addressed result cache" in
  Cmd.v
    (Cmd.info "ee_synthd" ~doc)
    Term.(
      const run $ socket_t $ tcp_t $ jobs_t $ shards_t $ queue_t $ deadline_t
      $ cache_mb_t $ tier_t $ quiet_t)

let () = exit (Cmd.eval main)
