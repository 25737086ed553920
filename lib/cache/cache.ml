(* Byte-budgeted LRU over a hashtable + doubly-linked recency list, one
   mutex around everything.  Entries are (hex key, payload string); the
   accounting charges key + payload bytes. *)

type node = {
  n_key : string;
  n_value : string;
  n_size : int;
  mutable prev : node option;  (* towards most-recently-used *)
  mutable next : node option;  (* towards least-recently-used *)
}

type stats = {
  hits : int;
  disk_hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  entries : int;
  bytes : int;
  max_bytes : int;
  quarantined : int;
}

type t = {
  lock : Mutex.t;
  table : (string, node) Hashtbl.t;
  mutable mru : node option;
  mutable lru : node option;
  mutable bytes : int;
  max_bytes : int;
  persist_dir : string option;
  mutable hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable quarantined : int;
}

let key parts =
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun p -> string_of_int (String.length p) ^ ":" ^ p) parts)))

let create ?(max_bytes = 64 * 1024 * 1024) ?persist_dir () =
  Option.iter (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755) persist_dir;
  {
    lock = Mutex.create ();
    table = Hashtbl.create 256;
    mru = None;
    lru = None;
    bytes = 0;
    max_bytes = max 0 max_bytes;
    persist_dir;
    hits = 0;
    disk_hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    quarantined = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---- recency list (caller holds the lock) ---- *)

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.mru <- node.next);
  (match node.next with Some nx -> nx.prev <- node.prev | None -> t.lru <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.mru;
  node.prev <- None;
  (match t.mru with Some m -> m.prev <- Some node | None -> t.lru <- Some node);
  t.mru <- Some node

let remove t node =
  unlink t node;
  Hashtbl.remove t.table node.n_key;
  t.bytes <- t.bytes - node.n_size

let evict_until t budget =
  while t.bytes > budget do
    match t.lru with
    | Some victim ->
        remove t victim;
        t.evictions <- t.evictions + 1
    | None -> t.bytes <- 0 (* unreachable: bytes > 0 implies an entry *)
  done

let insert t k v =
  (match Hashtbl.find_opt t.table k with Some old -> remove t old | None -> ());
  let size = String.length k + String.length v in
  if size <= t.max_bytes then begin
    evict_until t (t.max_bytes - size);
    let node = { n_key = k; n_value = v; n_size = size; prev = None; next = None } in
    Hashtbl.replace t.table k node;
    push_front t node;
    t.bytes <- t.bytes + size
  end

(* ---- persistence (the cross-instance tier) ----

   One content-addressed file per key, written to a unique temporary name
   and renamed into place, so two daemon processes sharing the directory
   can insert the same key concurrently without ever exposing a torn
   value.  Every entry is checksummed: the file starts with a one-line
   header "eecs1 <md5-of-payload> <payload-bytes>" so a reader can detect
   truncation (a crash mid-write of the *rename* is impossible, but a
   crashed writer can leave a short file behind on some filesystems, and
   operators truncate files) and bit rot.  A corrupt entry is never
   served: it is moved into a [quarantine/] subdirectory and the lookup
   proceeds as a miss, so the next computation heals the tier.

   The directory itself is the only record of what the tier holds:
   {!tier_stats} and {!preload} list it, so no other file has to be kept
   in step with the entries. *)

let entry_magic = "eecs1"

let quarantine_dir = "quarantine"

let entry_path dir k = Filename.concat dir k

(* Only content-addressed entries look like hex digests; the quarantine
   directory, in-flight temporaries and any stray file never do. *)
let is_entry_name name =
  String.length name = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) name

(* (key, file bytes, mtime) of every entry file present right now.  An
   entry renamed away between the listing and its [stat] is skipped. *)
let list_entries dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter_map (fun k ->
         if not (is_entry_name k) then None
         else
           match Unix.stat (entry_path dir k) with
           | st -> Some (k, st.Unix.st_size, st.Unix.st_mtime)
           | exception Unix.Unix_error _ -> None)

(* Entry file verification.  [`Corrupt] covers every way the payload can
   fail to match its header: missing header (including pre-checksum legacy
   files), short payload (truncation), digest mismatch. *)
let read_entry dir k =
  match open_in_bin (entry_path dir k) with
  | exception Sys_error _ -> `Missing
  | ic ->
      let verdict =
        match input_line ic with
        | exception End_of_file -> `Corrupt "empty file"
        | header -> (
            match String.split_on_char ' ' header with
            | [ magic; digest; size ] when magic = entry_magic -> (
                match int_of_string_opt size with
                | None -> `Corrupt "bad size field"
                | Some n when n < 0 -> `Corrupt "bad size field"
                | Some n -> (
                    match really_input_string ic n with
                    | exception End_of_file -> `Corrupt "truncated payload"
                    | v ->
                        if Digest.to_hex (Digest.string v) = digest then `Ok v
                        else `Corrupt "checksum mismatch"))
            | _ -> `Corrupt "bad header")
      in
      close_in ic;
      verdict

(* Move a corrupt entry out of the serving namespace.  Racing processes
   quarantining the same file: one rename wins, the other's fails — both
   outcomes leave the entry unservable, which is all that matters. *)
let quarantine_entry dir k =
  let qdir = Filename.concat dir quarantine_dir in
  (try if not (Sys.file_exists qdir) then Sys.mkdir qdir 0o755 with Sys_error _ -> ());
  let rec dest n =
    let candidate =
      Filename.concat qdir (if n = 0 then k else Printf.sprintf "%s.%d" k n)
    in
    if Sys.file_exists candidate then dest (n + 1) else candidate
  in
  try Sys.rename (entry_path dir k) (dest 0) with Sys_error _ -> ()

let persist dir k v =
  (* [temp_file] picks a fresh name atomically even across processes; the
     ".tmp-" prefix keeps it out of {!is_entry_name}'s namespace. *)
  let tmp = Filename.temp_file ~temp_dir:dir ".tmp-" "" in
  let oc = open_out_bin tmp in
  output_string oc
    (Printf.sprintf "%s %s %d\n" entry_magic
       (Digest.to_hex (Digest.string v))
       (String.length v));
  output_string oc v;
  close_out oc;
  Sys.rename tmp (entry_path dir k)

(* Caller holds the lock (for the [quarantined] counter). *)
let read_disk t dir k =
  match read_entry dir k with
  | `Ok v -> Some v
  | `Missing -> None
  | `Corrupt _ ->
      quarantine_entry dir k;
      t.quarantined <- t.quarantined + 1;
      None

(* ---- public API ---- *)

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some node ->
          t.hits <- t.hits + 1;
          unlink t node;
          push_front t node;
          Some node.n_value
      | None -> (
          match Option.bind t.persist_dir (fun dir -> read_disk t dir k) with
          | Some v ->
              t.disk_hits <- t.disk_hits + 1;
              insert t k v;
              Some v
          | None ->
              t.misses <- t.misses + 1;
              None))

let add t ~key:k v =
  locked t (fun () ->
      t.insertions <- t.insertions + 1;
      insert t k v;
      Option.iter (fun dir -> persist dir k v) t.persist_dir)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        disk_hits = t.disk_hits;
        misses = t.misses;
        insertions = t.insertions;
        evictions = t.evictions;
        entries = Hashtbl.length t.table;
        bytes = t.bytes;
        max_bytes = t.max_bytes;
        quarantined = t.quarantined;
      })

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.mru <- None;
      t.lru <- None;
      t.bytes <- 0)

(* ---- tier API ---- *)

type tier_stats = { tier_entries : int; tier_bytes : int }

let tier_stats t =
  Option.map
    (fun dir ->
      List.fold_left
        (fun acc (_, size, _) ->
          { tier_entries = acc.tier_entries + 1; tier_bytes = acc.tier_bytes + size })
        { tier_entries = 0; tier_bytes = 0 }
        (list_entries dir))
    t.persist_dir

let preload t =
  match t.persist_dir with
  | None -> 0
  | Some dir ->
      (* Newest first (mtime, ties broken by name), keeping entries while
         they fit the budget together; then inserted oldest-first so the
         newest entry ends up most-recently-used and nothing is evicted. *)
      let newest_first =
        List.sort
          (fun (k1, _, m1) (k2, _, m2) ->
            match Float.compare m2 m1 with 0 -> String.compare k2 k1 | c -> c)
          (list_entries dir)
      in
      locked t (fun () ->
          let rec take budget acc = function
            | [] -> acc
            | (k, _, _) :: rest when Hashtbl.mem t.table k -> take budget acc rest
            | (k, _, _) :: rest -> (
                match read_disk t dir k with
                | None -> take budget acc rest
                | Some v ->
                    let size = String.length k + String.length v in
                    (* An entry larger than the whole budget never lives in
                       memory (see [insert]); it does not end the run. *)
                    if size > t.max_bytes then take budget acc rest
                    else if size > budget then acc
                    else take (budget - size) ((k, v) :: acc) rest)
          in
          let chosen = take (t.max_bytes - t.bytes) [] newest_first in
          List.iter (fun (k, v) -> insert t k v) chosen;
          List.length chosen)
