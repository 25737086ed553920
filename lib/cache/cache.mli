(** A content-addressed synthesis-result cache.

    Keys are hex digests ({!key}) of whatever content identifies a result —
    [ee_synthd] hashes the request kind, the canonical BLIF text of the
    netlist and {!Ee_engine.Engine.spec_fingerprint} — and values are the
    serialized result payloads (single-line JSON).  The store is a
    byte-budgeted LRU: inserting past [max_bytes] evicts least-recently-used
    entries until the new entry fits.  All operations are safe to call
    concurrently from several Domains (one mutex; every operation is
    O(1) apart from multi-entry eviction).

    With [persist_dir] every insertion is also written to disk (one file
    per key, written to a unique temporary name and renamed into place),
    and a miss falls back to the directory before reporting failure — so a
    restarted daemon re-serves previous results warm.  Disk reads count as
    {!stats.disk_hits} and re-populate the in-memory tier.

    The directory is a {e cross-instance} tier: several [Cache.t] values —
    in one process or in several daemon processes on the same host — may
    share one [persist_dir].  Writers never expose torn values (unique
    temp file + atomic rename; concurrent writers of the same key race
    benignly, the content is identical by construction).  The directory
    listing is the tier's only record: {!tier_stats} and {!preload} read
    the 32-hex entry names and their [stat], and ignore every other file
    (temporaries, [quarantine/], or an [index] left by older versions).

    Every entry file carries a checksum header (md5 + payload size),
    verified on every disk read — {!find} fallbacks and {!preload} alike.
    An entry that fails verification (truncated by a crash mid-write,
    manually corrupted, or written by a pre-checksum version) is
    {e quarantined}: moved into a [quarantine/] subdirectory, counted in
    {!stats.quarantined}, and the lookup proceeds as a miss so the next
    computation rewrites it.  A corrupt entry is never served. *)

type t

type stats = {
  hits : int;  (** In-memory hits. *)
  disk_hits : int;  (** Misses served from [persist_dir]. *)
  misses : int;  (** Full misses (not in memory, not on disk). *)
  insertions : int;
  evictions : int;  (** Entries dropped to honour the byte budget. *)
  entries : int;  (** Current in-memory entry count. *)
  bytes : int;  (** Current in-memory payload bytes (keys + values). *)
  max_bytes : int;
  quarantined : int;
      (** Corrupt tier entries this instance moved to [quarantine/]. *)
}

val create : ?max_bytes:int -> ?persist_dir:string -> unit -> t
(** [max_bytes] defaults to 64 MiB.  [persist_dir] is created if missing
    (parents must exist); entries already present there are served on
    demand, not preloaded. *)

val key : string list -> string
(** Hex digest of the concatenated parts (order-sensitive, with an
    unambiguous separator so part boundaries cannot collide). *)

val find : t -> string -> string option
(** Look up a key, refreshing its recency.  Checks memory, then
    [persist_dir]. *)

val add : t -> key:string -> string -> unit
(** Insert (or refresh) a value.  A value larger than the whole budget is
    persisted to disk (when enabled) but not kept in memory. *)

val stats : t -> stats

val clear : t -> unit
(** Drop every in-memory entry (counters and disk files are kept). *)

type tier_stats = {
  tier_entries : int;  (** Entry files in the tier directory (one per key). *)
  tier_bytes : int;  (** Their file sizes summed, checksum headers included. *)
}

val tier_stats : t -> tier_stats option
(** Size of the shared on-disk tier, from a listing of its directory
    ([None] without [persist_dir]).  Counts entries written by {e any}
    instance sharing the directory, not just this one. *)

val preload : t -> int
(** Load tier entries into the in-memory LRU: the newest entries (by file
    mtime, ties broken by name) that fit [max_bytes] together, inserted
    oldest-first so the newest ends up most recently used.  An entry
    larger than the whole budget is skipped.  Returns the number loaded.
    Preloaded entries count as neither hits nor insertions, and keys
    already resident are left alone.  Every entry is checksum-verified;
    corrupt ones are quarantined and skipped. *)
