(* The content-addressed result cache: key discipline, LRU eviction under a
   byte budget, disk persistence, and concurrent access. *)

module Cache = Ee_cache.Cache

let test_key_separation () =
  (* The length-prefixed separator must keep part boundaries distinct. *)
  Alcotest.(check bool) "ab|c <> a|bc" true (Cache.key [ "ab"; "c" ] <> Cache.key [ "a"; "bc" ]);
  Alcotest.(check bool) "order-sensitive" true (Cache.key [ "a"; "b" ] <> Cache.key [ "b"; "a" ]);
  Alcotest.(check string) "deterministic" (Cache.key [ "x"; "y" ]) (Cache.key [ "x"; "y" ]);
  Alcotest.(check bool) "empty parts distinct" true
    (Cache.key [ "" ] <> Cache.key [ ""; "" ])

let test_find_add_counters () =
  let c = Cache.create () in
  let k = Cache.key [ "synth"; "netlist-text"; "spec" ] in
  Alcotest.(check (option string)) "miss before add" None (Cache.find c k);
  Cache.add c ~key:k "payload";
  Alcotest.(check (option string)) "hit after add" (Some "payload") (Cache.find c k);
  Cache.add c ~key:k "payload2";
  Alcotest.(check (option string)) "refresh replaces" (Some "payload2") (Cache.find c k);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 2 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "insertions" 2 s.Cache.insertions;
  Alcotest.(check int) "entries" 1 s.Cache.entries

let test_lru_eviction () =
  (* Budget fits ~3 of these entries; the least recently used must go. *)
  let payload = String.make 100 'x' in
  let entry_bytes = 100 + String.length (Cache.key [ "0" ]) in
  let c = Cache.create ~max_bytes:(3 * entry_bytes) () in
  let key i = Cache.key [ string_of_int i ] in
  Cache.add c ~key:(key 1) payload;
  Cache.add c ~key:(key 2) payload;
  Cache.add c ~key:(key 3) payload;
  (* Touch 1 so 2 becomes the LRU victim. *)
  Alcotest.(check bool) "1 still present" true (Cache.find c (key 1) <> None);
  Cache.add c ~key:(key 4) payload;
  Alcotest.(check (option string)) "LRU entry 2 evicted" None (Cache.find c (key 2));
  Alcotest.(check bool) "recent entries survive" true
    (Cache.find c (key 1) <> None && Cache.find c (key 3) <> None && Cache.find c (key 4) <> None);
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check bool) "budget honoured" true (s.Cache.bytes <= s.Cache.max_bytes)

let test_oversize_value () =
  let c = Cache.create ~max_bytes:64 () in
  Cache.add c ~key:(Cache.key [ "big" ]) (String.make 1000 'y');
  let s = Cache.stats c in
  Alcotest.(check int) "oversize value not kept in memory" 0 s.Cache.entries;
  Alcotest.(check int) "no lingering bytes" 0 s.Cache.bytes

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ee_cache_test_%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let test_persistence () =
  with_temp_dir (fun dir ->
      let k = Cache.key [ "persisted" ] in
      let c1 = Cache.create ~persist_dir:dir () in
      Cache.add c1 ~key:k "survives restarts";
      (* A second cache over the same directory — as after a daemon
         restart — must serve the entry from disk and re-populate memory. *)
      let c2 = Cache.create ~persist_dir:dir () in
      Alcotest.(check (option string)) "served from disk" (Some "survives restarts")
        (Cache.find c2 k);
      let s = Cache.stats c2 in
      Alcotest.(check int) "counted as a disk hit" 1 s.Cache.disk_hits;
      Alcotest.(check int) "now resident" 1 s.Cache.entries;
      (* Second lookup is a memory hit. *)
      ignore (Cache.find c2 k);
      Alcotest.(check int) "memory hit after re-population" 1 (Cache.stats c2).Cache.hits)

(* Bytes of a tier entry file: the "eecs1 <md5> <size>" header line plus
   the payload. *)
let file_bytes v =
  String.length
    (Printf.sprintf "eecs1 %s %d\n" (Digest.to_hex (Digest.string v)) (String.length v))
  + String.length v

let test_cross_instance_tier () =
  (* Two live caches over one directory — as with two daemons sharing a
     host tier.  Writes from either side are visible to the other via
     disk. *)
  with_temp_dir (fun dir ->
      let a = Cache.create ~persist_dir:dir () in
      let b = Cache.create ~persist_dir:dir () in
      let ka = Cache.key [ "from-a" ] and kb = Cache.key [ "from-b" ] in
      Cache.add a ~key:ka "written by a";
      Cache.add b ~key:kb "written by b";
      Alcotest.(check (option string)) "b sees a's entry" (Some "written by a")
        (Cache.find b ka);
      Alcotest.(check (option string)) "a sees b's entry" (Some "written by b")
        (Cache.find a kb);
      (* Overwrites replace the entry file; stats count each key once, at
         the size of its current file (checksum header included). *)
      Cache.add a ~key:ka "rewritten by a, longer payload";
      Cache.add b ~key:ka "rewritten by a, longer payload";
      match Cache.tier_stats a with
      | None -> Alcotest.fail "tier_stats on a persistent cache"
      | Some ts ->
          Alcotest.(check int) "two distinct keys on disk" 2 ts.Cache.tier_entries;
          Alcotest.(check int) "current file sizes, not the sum of history"
            (file_bytes "rewritten by a, longer payload" + file_bytes "written by b")
            ts.Cache.tier_bytes)

let test_preload () =
  with_temp_dir (fun dir ->
      let writer = Cache.create ~persist_dir:dir () in
      for i = 1 to 5 do
        Cache.add writer ~key:(Cache.key [ "warm"; string_of_int i ])
          (Printf.sprintf "payload-%d" i)
      done;
      (* A fresh instance starts cold, then preload pulls the tier into
         memory so the first lookups are already memory hits. *)
      let fresh = Cache.create ~persist_dir:dir () in
      Alcotest.(check int) "empty before preload" 0 (Cache.stats fresh).Cache.entries;
      Alcotest.(check int) "preload loads every entry" 5 (Cache.preload fresh);
      Alcotest.(check int) "resident after preload" 5 (Cache.stats fresh).Cache.entries;
      ignore (Cache.find fresh (Cache.key [ "warm"; "3" ]));
      let s = Cache.stats fresh in
      Alcotest.(check int) "memory hit, no disk round-trip" 1 s.Cache.hits;
      Alcotest.(check int) "no disk hits" 0 s.Cache.disk_hits;
      (* preload is idempotent. *)
      Alcotest.(check int) "already resident" 0 (Cache.preload fresh);
      (* A memory-only cache has no tier to preload. *)
      let mem = Cache.create () in
      Alcotest.(check int) "no tier, nothing loaded" 0 (Cache.preload mem);
      Alcotest.(check bool) "no tier stats" true (Cache.tier_stats mem = None))

let test_preload_budget () =
  (* Five equal-size entries with distinct mtimes, a budget of three: the
     three newest are loaded, the newest most recently used. *)
  with_temp_dir (fun dir ->
      let writer = Cache.create ~persist_dir:dir () in
      let keys = Array.init 5 (fun i -> Cache.key [ "aged"; string_of_int i ]) in
      Array.iteri
        (fun i k ->
          Cache.add writer ~key:k (Printf.sprintf "payload-%d" i);
          let t = 1_000_000. +. float_of_int i in
          Unix.utimes (Filename.concat dir k) t t)
        keys;
      let entry_bytes = String.length keys.(0) + String.length "payload-0" in
      let r = Cache.create ~max_bytes:(3 * entry_bytes) ~persist_dir:dir () in
      Alcotest.(check int) "three newest fit" 3 (Cache.preload r);
      Alcotest.(check int) "budget full" (3 * entry_bytes) (Cache.stats r).Cache.bytes;
      (* Two fresh entries evict the two least recently used: entries 2 and
         3, leaving entry 4 — the newest — resident. *)
      Cache.add r ~key:(Cache.key [ "fresh"; "a" ]) "payload-a";
      Cache.add r ~key:(Cache.key [ "fresh"; "b" ]) "payload-b";
      Alcotest.(check (option string)) "newest survives" (Some "payload-4")
        (Cache.find r keys.(4));
      Alcotest.(check int) "newest was in memory" 1 (Cache.stats r).Cache.hits;
      Alcotest.(check (option string)) "older comes from disk" (Some "payload-3")
        (Cache.find r keys.(3));
      Alcotest.(check int) "older was evicted" 1 (Cache.stats r).Cache.disk_hits;
      (* The oldest two were never loaded. *)
      ignore (Cache.find r keys.(0));
      Alcotest.(check int) "oldest was not preloaded" 2 (Cache.stats r).Cache.disk_hits)

let test_stray_files_ignored () =
  (* Only 32-hex entry names belong to the tier: an index left by an older
     version and an in-flight temporary are neither counted nor loaded. *)
  with_temp_dir (fun dir ->
      let w = Cache.create ~persist_dir:dir () in
      let k = Cache.key [ "only" ] in
      Cache.add w ~key:k "the one entry";
      write_file (Filename.concat dir "index") (k ^ " 13\n" ^ k ^ " 13\n");
      write_file (Filename.concat dir ".tmp-123456") "eecs1 half-written";
      (match Cache.tier_stats w with
      | Some ts ->
          Alcotest.(check int) "one entry counted" 1 ts.Cache.tier_entries;
          Alcotest.(check int) "only its bytes" (file_bytes "the one entry")
            ts.Cache.tier_bytes
      | None -> Alcotest.fail "tier_stats on a persistent cache");
      let r = Cache.create ~persist_dir:dir () in
      Alcotest.(check int) "one entry loaded" 1 (Cache.preload r);
      Alcotest.(check int) "nothing quarantined" 0 (Cache.stats r).Cache.quarantined)

let test_clear () =
  let c = Cache.create () in
  Cache.add c ~key:(Cache.key [ "a" ]) "1";
  Cache.add c ~key:(Cache.key [ "b" ]) "2";
  Cache.clear c;
  let s = Cache.stats c in
  Alcotest.(check int) "no entries" 0 s.Cache.entries;
  Alcotest.(check int) "no bytes" 0 s.Cache.bytes;
  Alcotest.(check (option string)) "entries gone" None (Cache.find c (Cache.key [ "a" ]))

let test_concurrent_access () =
  (* Several domains hammering a small cache: no crash, no torn values —
     every successful find returns exactly the payload its key encodes. *)
  let c = Cache.create ~max_bytes:4096 () in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for i = 1 to 500 do
              let v = (d * 10) + (i mod 17) in
              let k = Cache.key [ "shared"; string_of_int v ] in
              let payload = Printf.sprintf "value-%d" v in
              Cache.add c ~key:k payload;
              (match Cache.find c k with
              | Some got when got <> payload -> ok := false
              | _ -> ())
            done;
            !ok))
  in
  Alcotest.(check bool) "no torn reads under contention" true
    (List.for_all Fun.id (List.map Domain.join domains));
  let s = Cache.stats c in
  Alcotest.(check bool) "budget honoured under contention" true
    (s.Cache.bytes <= s.Cache.max_bytes)

(* ---- checksummed tier entries: corruption and quarantine ---- *)

let test_truncated_entry_quarantined () =
  with_temp_dir (fun dir ->
      let k = Cache.key [ "fragile" ] in
      let w = Cache.create ~persist_dir:dir () in
      Cache.add w ~key:k "a payload long enough that truncation is detectable";
      (* Chop the tail off the entry file, as a crash mid-write (or an
         admin with dd) would. *)
      let path = Filename.concat dir k in
      let full = read_file path in
      write_file path (String.sub full 0 (String.length full - 10));
      (* A second instance over the same tier — as after a restart — must
         refuse to serve the damaged entry. *)
      let r = Cache.create ~persist_dir:dir () in
      Alcotest.(check (option string)) "corrupt entry never served" None (Cache.find r k);
      Alcotest.(check int) "counted as quarantined" 1 (Cache.stats r).Cache.quarantined;
      Alcotest.(check bool) "moved out of the serving namespace" false (Sys.file_exists path);
      Alcotest.(check bool) "kept under quarantine/ for post-mortem" true
        (Sys.file_exists (Filename.concat (Filename.concat dir "quarantine") k));
      (* Recomputing heals the tier: the key is servable again. *)
      Cache.add r ~key:k "recomputed";
      let r2 = Cache.create ~persist_dir:dir () in
      Alcotest.(check (option string)) "healed by rewrite" (Some "recomputed") (Cache.find r2 k))

let test_bitflip_entry_quarantined () =
  with_temp_dir (fun dir ->
      let k = Cache.key [ "bitrot" ] in
      let w = Cache.create ~persist_dir:dir () in
      Cache.add w ~key:k "payload-payload-payload";
      (* Flip one payload byte.  The size still matches the header, so
         only the digest can catch this. *)
      let path = Filename.concat dir k in
      let full = Bytes.of_string (read_file path) in
      let pos = Bytes.length full - 3 in
      Bytes.set full pos (if Bytes.get full pos = 'x' then 'y' else 'x');
      write_file path (Bytes.to_string full);
      let r = Cache.create ~persist_dir:dir () in
      Alcotest.(check (option string)) "flipped byte detected" None (Cache.find r k);
      Alcotest.(check int) "quarantined" 1 (Cache.stats r).Cache.quarantined)

let test_preload_quarantines_corrupt () =
  with_temp_dir (fun dir ->
      let w = Cache.create ~persist_dir:dir () in
      let keys = List.init 3 (fun i -> Cache.key [ "pre"; string_of_int i ]) in
      List.iteri (fun i k -> Cache.add w ~key:k (Printf.sprintf "value-%d" i)) keys;
      let victim = List.nth keys 1 in
      write_file (Filename.concat dir victim) "eecs1 ";
      let r = Cache.create ~persist_dir:dir () in
      Alcotest.(check int) "only intact entries preloaded" 2 (Cache.preload r);
      Alcotest.(check int) "corrupt entry quarantined during preload" 1
        (Cache.stats r).Cache.quarantined;
      Alcotest.(check (option string)) "intact entry warm" (Some "value-0")
        (Cache.find r (List.nth keys 0));
      Alcotest.(check (option string)) "victim is a plain miss" None (Cache.find r victim))

let suite =
  ( "cache",
    [
      Alcotest.test_case "key separation" `Quick test_key_separation;
      Alcotest.test_case "find/add counters" `Quick test_find_add_counters;
      Alcotest.test_case "LRU eviction under byte budget" `Quick test_lru_eviction;
      Alcotest.test_case "oversize value bypasses memory" `Quick test_oversize_value;
      Alcotest.test_case "disk persistence across restart" `Quick test_persistence;
      Alcotest.test_case "cross-instance shared tier" `Quick test_cross_instance_tier;
      Alcotest.test_case "preload warms a fresh instance" `Quick test_preload;
      Alcotest.test_case "preload keeps the newest entries that fit" `Quick
        test_preload_budget;
      Alcotest.test_case "stray files in the tier ignored" `Quick test_stray_files_ignored;
      Alcotest.test_case "clear" `Quick test_clear;
      Alcotest.test_case "concurrent domains" `Quick test_concurrent_access;
      Alcotest.test_case "truncated tier entry quarantined" `Quick
        test_truncated_entry_quarantined;
      Alcotest.test_case "checksum mismatch quarantined" `Quick
        test_bitflip_entry_quarantined;
      Alcotest.test_case "preload quarantines corrupt entries" `Quick
        test_preload_quarantines_corrupt;
    ] )
